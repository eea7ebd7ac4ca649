#include "common/cliopts_lists.hh"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "policy/sharing_model.hh"
#include "traffic/admission.hh"
#include "traffic/arrival.hh"
#include "traffic/scheduler.hh"
#include "workloads/suite.hh"

namespace occamy::cliopts
{

namespace
{

/** The catalog id spelled by all of @p digits, or 0 (never an id) when
 *  anything else is there too. */
unsigned
catalogId(std::string_view digits)
{
    unsigned id = 0;
    const char *const end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, id);
    return ec == std::errc{} && stop == end ? id : 0;
}

int
printPolicies()
{
    std::printf("registered sharing policies (--policy):\n");
    for (const policy::SharingModel *m : policy::allModels()) {
        std::printf("  %-8s %-8s", m->key(), m->paperName());
        if (!m->aliases().empty()) {
            std::printf(" aliases:");
            for (const auto &a : m->aliases())
                std::printf(" %s", a.c_str());
        }
        std::printf("\n");
    }
    return 0;
}

int
printWorkloads()
{
    std::printf("SPEC workloads:\n");
    for (unsigned n = 1; n <= 22; ++n) {
        const auto w = workloads::specWorkload(n);
        std::printf("  WL%-3u %s:", n, w.memoryIntensive ? "M" : "C");
        for (const auto &loop : w.loops)
            std::printf(" %s", loop.name.c_str());
        std::printf("\n");
    }
    std::printf("OpenCV workloads:\n");
    for (unsigned n = 1; n <= 12; ++n) {
        const auto w = workloads::opencvWorkload(n);
        std::printf("  CV%-3u %s:", n, w.memoryIntensive ? "M" : "C");
        for (const auto &loop : w.loops)
            std::printf(" %s", loop.name.c_str());
        std::printf("\n");
    }
    return 0;
}

int
printPairs()
{
    const auto all = workloads::allPairs();
    for (std::size_t i = 0; i < all.size(); ++i)
        std::printf("%3zu  %-8s %s + %s%s\n", i + 1,
                    all[i].label.c_str(), all[i].core0.name.c_str(),
                    all[i].core1.name.c_str(),
                    i >= 16 ? "  (OpenCV)" : "");
    return 0;
}

int
printTraffic()
{
    std::printf("registered arrival processes (--traffic):\n");
    for (const traffic::ArrivalProcess *p : traffic::allProcesses())
        std::printf("  %-8s %s\n", p->key(), p->summary());
    return 0;
}

int
printSchedulers()
{
    std::printf("registered dispatch disciplines (--scheduler):\n");
    for (const traffic::Dispatcher *d : traffic::allDispatchers())
        std::printf("  %-8s %s\n", d->key(), d->summary());
    return 0;
}

int
printAdmission()
{
    std::printf("registered admission policies (--admission):\n");
    for (const traffic::AdmissionPolicy *p :
         traffic::allAdmissionPolicies())
        std::printf("  %-12s %s\n", p->key().c_str(),
                    p->summary().c_str());
    return 0;
}

} // namespace

void
addListOptions(OptionSet &set, unsigned which)
{
    if (which & kListAdmission)
        set.action("list-admission",
                   "print registered admission policies and exit",
                   printAdmission);
    if (which & kListTraffic)
        set.action("list-traffic",
                   "print registered arrival processes and exit",
                   printTraffic);
    if (which & kListSchedulers)
        set.action("list-schedulers",
                   "print registered dispatch disciplines and exit",
                   printSchedulers);
    if (which & kListPairs)
        set.action("list-pairs",
                   "print the co-running pair catalog with indices",
                   printPairs);
    if (which & kListWorkloads)
        set.action("list-workloads",
                   "list the workload catalog and exit", printWorkloads);
    if (which & kListPolicies)
        set.action("list-policies",
                   "list registered sharing policies and exit",
                   printPolicies);
}

std::optional<SharingPolicy>
parsePolicy(const std::string &s)
{
    if (const policy::SharingModel *m = policy::modelByName(s))
        return m->id();
    return std::nullopt;
}

workloads::Workload
lookupWorkload(const std::string &token)
{
    const std::string_view t = token;
    if (t.starts_with("CV"))
        return workloads::opencvWorkload(catalogId(t.substr(2)));
    if (t.starts_with("WL"))
        return workloads::specWorkload(catalogId(t.substr(2)));
    return workloads::specWorkload(catalogId(t));
}

std::pair<workloads::Workload, workloads::Workload>
lookupPair(const std::string &spec, bool opencv)
{
    const auto plus = spec.find('+');
    if (plus == std::string::npos)
        throw std::invalid_argument("bad pair (want e.g. \"6+16\"): " +
                                    spec);
    const std::string prefix = opencv ? "CV" : "";
    return {lookupWorkload(prefix + spec.substr(0, plus)),
            lookupWorkload(prefix + spec.substr(plus + 1))};
}

} // namespace occamy::cliopts
