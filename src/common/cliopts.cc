#include "common/cliopts.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace occamy::cliopts
{

namespace
{

bool
parseBool(const std::string &v, bool &out)
{
    if (v.empty() || v == "true" || v == "on" || v == "1") {
        out = true;
        return true;
    }
    if (v == "false" || v == "off" || v == "0") {
        out = false;
        return true;
    }
    return false;
}

/** A decimal integer in [@p min, @p max]: no sign, no trailing text,
 *  nothing strtoull reports out of range. */
bool
parseUnsigned(const std::string &v, std::uint64_t &out,
              std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (v.empty() || v[0] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE || n < min ||
        n > max)
        return false;
    out = static_cast<std::uint64_t>(n);
    return true;
}

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

/** Value handler of an integer option of type T, at least @p min. */
template <class T>
std::function<bool(const std::string &, std::string &)>
integer(const std::string &name, T *target, T min)
{
    return [name, target, min](const std::string &v, std::string &err) {
        std::uint64_t n = 0;
        if (!parseUnsigned(v, n, min, std::numeric_limits<T>::max())) {
            err = "--" + name + " wants an integer >= " +
                  std::to_string(min) + ", got \"" + v + "\"";
            return false;
        }
        *target = static_cast<T>(n);
        return true;
    };
}

} // namespace

OptionSet::OptionSet(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary))
{
}

OptionSet &
OptionSet::add(Option o)
{
    options_.push_back(std::move(o));
    return *this;
}

OptionSet &
OptionSet::flag(const std::string &name, bool *target,
                const std::string &help)
{
    Option o;
    o.name = name;
    o.help = help;
    o.takesValue = false;
    o.apply = [name, target](const std::string &v, std::string &err) {
        bool b = true;
        if (!parseBool(v, b)) {
            err = name + " wants a boolean, got \"" + v + "\"";
            return false;
        }
        *target = b;
        return true;
    };
    return add(std::move(o));
}

OptionSet &
OptionSet::value(const std::string &name, std::string *target,
                 const std::string &metavar, const std::string &help)
{
    Option o;
    o.name = name;
    o.metavar = metavar;
    o.help = help;
    o.takesValue = true;
    o.apply = [target](const std::string &v, std::string &) {
        *target = v;
        return true;
    };
    return add(std::move(o));
}

OptionSet &
OptionSet::value(const std::string &name, unsigned *target,
                 const std::string &metavar, const std::string &help,
                 unsigned min)
{
    return custom(name, metavar, help, integer(name, target, min));
}

OptionSet &
OptionSet::value(const std::string &name, std::uint64_t *target,
                 const std::string &metavar, const std::string &help,
                 std::uint64_t min)
{
    return custom(name, metavar, help, integer(name, target, min));
}

OptionSet &
OptionSet::value(const std::string &name, double *target,
                 const std::string &metavar, const std::string &help,
                 bool positive)
{
    Option o;
    o.name = name;
    o.metavar = metavar;
    o.help = help;
    o.takesValue = true;
    o.apply = [name, target, positive](const std::string &v,
                                       std::string &err) {
        char *end = nullptr;
        const double d = std::strtod(v.c_str(), &end);
        if (v.empty() || end == v.c_str() || *end != '\0' ||
            !std::isfinite(d) || (positive && d <= 0)) {
            err = "--" + name + " wants a " +
                  (positive ? "positive number" : "number") +
                  ", got \"" + v + "\"";
            return false;
        }
        *target = d;
        return true;
    };
    return add(std::move(o));
}

OptionSet &
OptionSet::onOff(const std::string &name, bool *target,
                 const std::string &help)
{
    Option o;
    o.name = name;
    o.metavar = "on|off";
    o.help = help;
    o.takesValue = true;
    o.apply = [name, target](const std::string &v, std::string &err) {
        bool b = true;
        if (!parseBool(v, b)) {
            err = "--" + name + " wants on|off, got \"" + v + "\"";
            return false;
        }
        *target = b;
        return true;
    };
    return add(std::move(o));
}

OptionSet &
OptionSet::custom(
    const std::string &name, const std::string &metavar,
    const std::string &help,
    std::function<bool(const std::string &, std::string &)> apply)
{
    Option o;
    o.name = name;
    o.metavar = metavar;
    o.help = help;
    o.takesValue = true;
    o.apply = std::move(apply);
    return add(std::move(o));
}

OptionSet &
OptionSet::action(const std::string &name, const std::string &help,
                  std::function<int()> run)
{
    Option o;
    o.name = name;
    o.help = help;
    o.takesValue = false;
    o.act = std::move(run);
    return add(std::move(o));
}

OptionSet &
OptionSet::alias(const std::string &from, const std::string &to)
{
    aliases_.emplace_back(from, to);
    return *this;
}

OptionSet &
OptionSet::footer(std::string text)
{
    footer_ = std::move(text);
    return *this;
}

std::string
OptionSet::resolveAlias(const std::string &name) const
{
    for (const auto &[from, to] : aliases_)
        if (from == name)
            return to;
    return name;
}

const OptionSet::Option *
OptionSet::find(const std::string &name) const
{
    const std::string target = resolveAlias(canonicalKey(name));
    for (const Option &o : options_)
        if (o.name == target)
            return &o;
    return nullptr;
}

ParseResult
OptionSet::parse(int argc, char **argv) const
{
    auto fail = [](std::string msg) {
        ParseResult r;
        r.status = Status::Error;
        r.exitCode = 2;
        r.error = std::move(msg);
        return r;
    };

    const Option *pending_action = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(stdout);
            ParseResult r;
            r.status = Status::Exit;
            return r;
        }
        if (arg.rfind("--", 0) != 0)
            return fail("unexpected argument: " + arg);

        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }

        const Option *o = find(name);
        if (!o)
            return fail("unknown option: " + arg);
        if (o->act) {
            if (has_inline)
                return fail("--" + o->name + " takes no value");
            if (!pending_action)
                pending_action = o;
            continue;
        }
        std::string value = inline_value;
        if (o->takesValue && !has_inline) {
            if (i + 1 >= argc)
                return fail("--" + o->name + " needs a value");
            value = argv[++i];
        }
        if (!o->takesValue && has_inline)
            return fail("--" + o->name + " takes no value");
        std::string err;
        if (!o->apply(value, err))
            return fail(err);
    }

    if (pending_action) {
        ParseResult r;
        r.status = Status::Exit;
        r.exitCode = pending_action->act();
        return r;
    }
    return {};
}

bool
OptionSet::set(const std::string &key, const std::string &value,
               std::string &err) const
{
    const Option *o = find(key);
    if (!o) {
        err = "unknown key: " + key;
        return false;
    }
    if (o->act) {
        err = key + " is not a config key";
        return false;
    }
    return o->apply(value, err);
}

bool
OptionSet::has(const std::string &key) const
{
    return find(key) != nullptr;
}

void
OptionSet::printHelp(std::FILE *out) const
{
    std::fprintf(out, "%s: %s\n", tool_.c_str(), summary_.c_str());
    // Description column: wide enough for the longest "--name METAVAR".
    std::size_t width = 0;
    for (const Option &o : options_) {
        const std::size_t w = 2 + o.name.size() +
                              (o.metavar.empty() ? 0
                                                 : 1 + o.metavar.size());
        width = std::max(width, w);
    }
    for (const Option &o : options_) {
        std::string head = "--" + o.name;
        if (!o.metavar.empty())
            head += " " + o.metavar;
        head.resize(width + 2, ' ');
        std::fprintf(out, "  %s", head.c_str());
        // Continuation lines indent to the description column.
        for (std::size_t i = 0; i < o.help.size(); ++i) {
            std::fputc(o.help[i], out);
            if (o.help[i] == '\n' && i + 1 < o.help.size())
                std::fprintf(out, "  %*s", static_cast<int>(width + 2),
                             "");
        }
        std::fputc('\n', out);
    }
    if (!footer_.empty())
        std::fprintf(out, "%s\n", footer_.c_str());
}

bool
parseTopology(const std::string &spec, unsigned &clusters,
              unsigned &cores_per_cluster, std::string &err)
{
    const auto x = spec.find_first_of("xX");
    std::uint64_t c = 0, k = 0;
    if (x == std::string::npos ||
        !parseUnsigned(spec.substr(0, x), c, 1, kUnsignedMax) ||
        !parseUnsigned(spec.substr(x + 1), k, 1, kUnsignedMax)) {
        err = "bad topology \"" + spec +
              "\" (want CxK, e.g. 4x4 = 4 clusters of 4 cores)";
        return false;
    }
    clusters = static_cast<unsigned>(c);
    cores_per_cluster = static_cast<unsigned>(k);
    return true;
}

std::function<bool(const std::string &, std::string &)>
flatCores(unsigned &clusters, unsigned &cores)
{
    return [&clusters, &cores](const std::string &v, std::string &err) {
        std::uint64_t n = 0;
        if (!parseUnsigned(v, n, 1, kUnsignedMax)) {
            err = "--cores wants a positive integer, got \"" + v + "\"";
            return false;
        }
        clusters = 1;
        cores = static_cast<unsigned>(n);
        return true;
    };
}

std::string
canonicalKey(const std::string &key)
{
    std::string out = key;
    for (char &c : out)
        if (c == '_')
            c = '-';
    return out;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string item;
    for (const char c : s) {
        if (c != ',') {
            item.push_back(c);
        } else if (!item.empty()) {
            out.push_back(std::move(item));
            item.clear();
        }
    }
    if (!item.empty())
        out.push_back(std::move(item));
    return out;
}

} // namespace occamy::cliopts
