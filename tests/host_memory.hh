/**
 * @file
 * Host-memory probe for the tests that check the simulator's storage
 * costs what a run touches, not what it could hold.
 */

#ifndef OCCAMY_TESTS_HOST_MEMORY_HH
#define OCCAMY_TESTS_HOST_MEMORY_HH

#include <unistd.h>

#include <fstream>

namespace occamy::test
{

/** Anonymous memory resident in this process now, MiB: resident minus
 *  file-backed pages (Linux /proc/self/statm), so code paged in by a
 *  first call does not count. Unlike the peak, it does not depend on
 *  what earlier tests in the binary touched. */
inline double
residentAnonMb()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0, shared = 0;
    statm >> size >> resident >> shared;
    return static_cast<double>(resident - shared) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

} // namespace occamy::test

#endif // OCCAMY_TESTS_HOST_MEMORY_HH
