/**
 * @file
 * Shared registry lookups and listing actions for the occamy CLIs.
 *
 * occamy-sim and occamy-batchrun print the same catalogs (--list-
 * policies, --list-workloads, ...); this registers the exact listing
 * actions a tool wants onto its OptionSet so both tools share one
 * implementation and one output format. The front ends also resolve
 * policy names and workload ids through the same two lookups.
 */

#ifndef OCCAMY_COMMON_CLIOPTS_LISTS_HH
#define OCCAMY_COMMON_CLIOPTS_LISTS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/cliopts.hh"
#include "common/config.hh"
#include "workloads/suite.hh"

namespace occamy::cliopts
{

inline constexpr unsigned kListPolicies = 1u << 0;
inline constexpr unsigned kListWorkloads = 1u << 1;
inline constexpr unsigned kListPairs = 1u << 2;
inline constexpr unsigned kListTraffic = 1u << 3;
inline constexpr unsigned kListSchedulers = 1u << 4;
inline constexpr unsigned kListAdmission = 1u << 5;

/**
 * Register the listing actions selected by the @p which bitmask onto
 * @p set: --list-traffic, --list-schedulers, --list-pairs,
 * --list-workloads and --list-policies (each prints its registry and
 * exits 0). Tools add their own "--list" alias on top, e.g.
 * `set.alias("list", "list-workloads")`.
 */
void addListOptions(OptionSet &set, unsigned which);

/** The registered policy named @p s (key or alias), if any. */
std::optional<SharingPolicy> parsePolicy(const std::string &s);

/** The catalog workload for "WLn", "CVn" or a bare SPEC number n.
 *  Throws std::out_of_range for an id outside the catalog, or for a
 *  token with anything but the id's digits after its prefix. */
workloads::Workload lookupWorkload(const std::string &token);

/** The two workloads of a pair spec "A+B", each half resolved by
 *  lookupWorkload; with @p opencv, bare ids name OpenCV workloads.
 *  Throws std::invalid_argument when there is no '+', and what
 *  lookupWorkload throws for a bad half. */
std::pair<workloads::Workload, workloads::Workload>
lookupPair(const std::string &spec, bool opencv = false);

} // namespace occamy::cliopts

#endif // OCCAMY_COMMON_CLIOPTS_LISTS_HH
