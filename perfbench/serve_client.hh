/**
 * @file
 * Client side of the occamy-serve NDJSON protocol: spawns the daemon as
 * a child process on a pair of pipes and runs one request at a time
 * (a closed loop: the next request goes out only after the previous
 * one's final reply line came back).
 */

#ifndef PERFBENCH_SERVE_CLIENT_HH
#define PERFBENCH_SERVE_CLIENT_HH

#include <map>
#include <string>

namespace perfbench
{

/** One flat JSON reply, values kept as raw text (strings unquoted). */
using Reply = std::map<std::string, std::string>;

/** Parse a flat JSON object line; @return false if malformed. */
bool parseReply(const std::string &line, Reply &out);

/** A running occamy-serve child. The destructor kills and reaps it if
 *  it is still running. */
class ServeClient
{
  public:
    /** Spawn @p binary; throws std::runtime_error on failure. */
    explicit ServeClient(const std::string &binary);
    ~ServeClient();
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Send one request line and read reply lines until the final one
     * (anything but a "progress"/"sweep_progress" event). Throws
     * std::runtime_error if the daemon dies, goes silent for
     * @p timeoutSec, or replies with malformed JSON.
     */
    Reply request(const std::string &line, double timeoutSec = 120.0);

    int pid() const { return pid_; }

    /** Ask the daemon to exit and reap it; @return true on a clean
     *  "bye" and exit status 0. */
    bool shutdown();

  private:
    std::string readLine(double timeoutSec);
    void reap(bool kill);

    int pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    std::string buf_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_CLIENT_HH
