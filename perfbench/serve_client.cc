#include "serve_client.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench
{

bool
parseReply(const std::string &line, Reply &out)
{
    std::size_t i = 0;
    auto ws = [&] {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
            ++i;
    };
    auto str = [&](std::string &s) {
        if (i >= line.size() || line[i] != '"')
            return false;
        for (++i; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size()) {
                const char c = line[++i];
                s.push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
            } else {
                s.push_back(line[i]);
            }
        }
        return i++ < line.size();
    };
    ws();
    if (i >= line.size() || line[i++] != '{')
        return false;
    ws();
    if (i < line.size() && line[i] == '}')
        return true;
    for (;;) {
        std::string key, val;
        ws();
        if (!str(key))
            return false;
        ws();
        if (i >= line.size() || line[i++] != ':')
            return false;
        ws();
        if (i < line.size() && line[i] == '"') {
            if (!str(val))
                return false;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                val.push_back(line[i++]);
            while (!val.empty() && val.back() == ' ')
                val.pop_back();
        }
        out[key] = val;
        ws();
        if (i >= line.size())
            return false;
        if (line[i] == '}')
            return true;
        if (line[i++] != ',')
            return false;
    }
}

ServeClient::ServeClient(const std::string &binary)
{
    int in[2], out[2];
    if (pipe(in) != 0)
        throw std::runtime_error("pipe failed");
    if (pipe(out) != 0) {
        close(in[0]);
        close(in[1]);
        throw std::runtime_error("pipe failed");
    }
    pid_ = fork();
    if (pid_ < 0) {
        for (int fd : {in[0], in[1], out[0], out[1]})
            close(fd);
        throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
        dup2(in[0], STDIN_FILENO);
        dup2(out[1], STDOUT_FILENO);
        close(in[0]);
        close(in[1]);
        close(out[0]);
        close(out[1]);
        execl(binary.c_str(), binary.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
    close(in[0]);
    close(out[1]);
    toChild_ = in[1];
    fromChild_ = out[0];
    // A daemon that dies must surface as an error reply, not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
}

ServeClient::~ServeClient()
{
    reap(true);
}

void
ServeClient::reap(bool kill)
{
    if (toChild_ >= 0)
        close(toChild_);
    if (fromChild_ >= 0)
        close(fromChild_);
    toChild_ = fromChild_ = -1;
    if (pid_ > 0) {
        if (kill)
            ::kill(pid_, SIGKILL);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }
}

std::string
ServeClient::readLine(double timeoutSec)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeoutSec));
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return line;
        }
        using std::chrono::milliseconds;
        const auto left = std::chrono::duration_cast<milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            throw std::runtime_error("occamy-serve reply timed out");
        struct pollfd p = {fromChild_, POLLIN, 0};
        const int rc = poll(&p, 1, static_cast<int>(left.count()));
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            continue;
        char chunk[65536];
        const ssize_t n = read(fromChild_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("occamy-serve exited unexpectedly");
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

Reply
ServeClient::request(const std::string &line, double timeoutSec)
{
    const std::string msg = line + "\n";
    for (std::size_t off = 0; off < msg.size();) {
        const ssize_t n = write(toChild_, msg.data() + off, msg.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("cannot write to occamy-serve");
        off += static_cast<std::size_t>(n);
    }
    for (;;) {
        const std::string got = readLine(timeoutSec);
        Reply r;
        if (!parseReply(got, r))
            throw std::runtime_error("malformed reply: " + got);
        const std::string &ev = r["event"];
        if (ev != "progress" && ev != "sweep_progress")
            return r;
    }
}

bool
ServeClient::shutdown()
{
    bool bye = false;
    try {
        bye = request("{\"cmd\":\"shutdown\"}", 30.0)["event"] == "bye";
    } catch (const std::exception &) {
        bye = false;
    }
    close(toChild_);
    toChild_ = -1;
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    reap(false);
    return bye && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace perfbench
