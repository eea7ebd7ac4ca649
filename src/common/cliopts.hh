/**
 * @file
 * Declarative command-line options shared by the occamy tools.
 *
 * Each tool describes its flags once, as a table: an OptionSet maps
 * "--name" flags onto variables (or custom handlers), generates the
 * --help text from the same table, and exposes the table a second way
 * through set(key, value) so occamy-serve can feed NDJSON request keys
 * ("max_cycles":"5000") through the exact parsing and validation the
 * CLI uses. Both spellings "--flag value" and "--flag=value" work.
 *
 * The table replaces the per-tool `if (arg == "--x")` ladders that
 * occamy-sim and occamy-batchrun used to duplicate; tools/ carries no
 * hand-rolled flag branches any more.
 */

#ifndef OCCAMY_COMMON_CLIOPTS_HH
#define OCCAMY_COMMON_CLIOPTS_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace occamy::cliopts
{

enum class Status
{
    Ok,         ///< All flags parsed; run the tool.
    Exit,       ///< --help or a list action ran; exit with exitCode.
    Error,      ///< Bad flag or value; `error` says which.
};

struct ParseResult
{
    Status status = Status::Ok;
    int exitCode = 0;
    std::string error;

    bool ok() const { return status == Status::Ok; }
};

class OptionSet
{
  public:
    /** @p tool and @p summary head the generated --help text. */
    OptionSet(std::string tool, std::string summary);

    // ------------------------------------------------- registration
    // All registrars return *this so a table reads as one chain.
    // Help strings may contain '\n'; continuation lines are indented
    // to the description column.

    /** Presence flag: `--name` sets @p target true. Through set(), a
     *  boolean value ("true"/"on"/"1" or "false"/"off"/"0") applies. */
    OptionSet &flag(const std::string &name, bool *target,
                    const std::string &help);

    /** `--name V` storing into a variable, with type-checked parses. */
    OptionSet &value(const std::string &name, std::string *target,
                     const std::string &metavar, const std::string &help);
    /** Unsigned value; rejects values below @p min or beyond the
     *  target type. */
    OptionSet &value(const std::string &name, unsigned *target,
                     const std::string &metavar, const std::string &help,
                     unsigned min = 0);
    OptionSet &value(const std::string &name, std::uint64_t *target,
                     const std::string &metavar, const std::string &help,
                     std::uint64_t min = 0);
    /** Finite double value; @p positive rejects values <= 0. */
    OptionSet &value(const std::string &name, double *target,
                     const std::string &metavar, const std::string &help,
                     bool positive = false);

    /** `--name on|off` boolean (the --fast-forward idiom). */
    OptionSet &onOff(const std::string &name, bool *target,
                     const std::string &help);

    /** `--name V` routed through @p apply; return false with @p err
     *  set to reject the value. */
    OptionSet &custom(
        const std::string &name, const std::string &metavar,
        const std::string &help,
        std::function<bool(const std::string &value, std::string &err)>
            apply);

    /** Valueless flag that runs @p run after a successful parse and
     *  exits the tool with its return value (--list-... idiom). */
    OptionSet &action(const std::string &name, const std::string &help,
                      std::function<int()> run);

    /** `--from` parses exactly like `--to` (not shown in --help). */
    OptionSet &alias(const std::string &from, const std::string &to);

    /** Extra lines printed after the option table (exit codes etc.). */
    OptionSet &footer(std::string text);

    // ------------------------------------------------- consumption

    /** Parse argv. --help/-h print the generated help and Exit(0);
     *  actions run after all flags parsed. Does not print errors. */
    ParseResult parse(int argc, char **argv) const;

    /** Apply one key=value pair outside argv (NDJSON config keys).
     *  '_' and '-' are interchangeable in @p key. Returns false with
     *  @p err set on unknown keys or rejected values. */
    bool set(const std::string &key, const std::string &value,
             std::string &err) const;

    /** True iff @p key names a registered option ('_' == '-'). */
    bool has(const std::string &key) const;

    /** The generated help text (tool summary + option table). */
    void printHelp(std::FILE *out = stdout) const;

  private:
    struct Option
    {
        std::string name;       ///< Without the leading "--".
        std::string metavar;    ///< Empty for presence flags/actions.
        std::string help;
        bool takesValue = false;
        /** Value handler; presence flags receive "". */
        std::function<bool(const std::string &, std::string &)> apply;
        /** Non-null for action options. */
        std::function<int()> act;
    };

    const Option *find(const std::string &name) const;
    std::string resolveAlias(const std::string &name) const;
    OptionSet &add(Option o);

    std::string tool_;
    std::string summary_;
    std::string footer_;
    std::vector<Option> options_;
    std::vector<std::pair<std::string, std::string>> aliases_;
};

/**
 * Parse a machine topology spec "CxK" (C co-processor clusters of K
 * cores each, e.g. "4x4") into its two factors. Returns false with
 * @p err set on anything else; zero factors are rejected here, richer
 * validation (area model, bus feasibility) happens in
 * MachineConfig::Builder.
 */
bool parseTopology(const std::string &spec, unsigned &clusters,
                   unsigned &cores_per_cluster, std::string &err);

/** Value handler of "--cores N", the flat spelling of --topology 1xN:
 *  sets @p clusters to 1 and @p cores to N >= 1. The references must
 *  outlive the OptionSet. */
std::function<bool(const std::string &, std::string &)>
flatCores(unsigned &clusters, unsigned &cores);

/** The canonical spelling of an option key: '_' reads as '-', so the
 *  NDJSON key "max_cycles" and the flag --max-cycles name one option. */
std::string canonicalKey(const std::string &key);

/** The non-empty items of a comma-separated list. */
std::vector<std::string> splitCommas(const std::string &s);

} // namespace occamy::cliopts

#endif // OCCAMY_COMMON_CLIOPTS_HH
