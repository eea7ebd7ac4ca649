#include "coproc/regfile.hh"

#include <cassert>

#include "ckpt/ckpt.hh"
#include "policy/sharing_model.hh"

namespace occamy
{

RegFileModel::RegFileModel(const MachineConfig &cfg)
    : shared_(policy::model(cfg.policy).sharedRegfilePool()),
      rows_(cfg.vregsPerBlk),
      pools_(shared_ ? 1 : cfg.numCores)
{
    // Section 7.6: when scaling FTS past 2 cores the paper keeps the
    // 2-core number of physical registers per core (paying the +33.5%
    // register-file area its Fig. 12 analysis charges to FTS).
    if (shared_ && cfg.numCores > 2)
        rows_ = cfg.vregsPerBlk * (cfg.numCores / 2);

    // Under FTS every core's full architectural context must be held
    // at machine width in the one shared pool (the paper's root cause
    // of FTS's renaming stalls): those rows are pinned and never enter
    // the freelist. Spatial designs rename per-core into their own
    // 160-row block sets, so nothing is pinned.
    unsigned pinned = 0;
    if (shared_)
        pinned = kNumArchVecRegs * cfg.numCores;
    assert(pinned < rows_ && "register file too small for FTS contexts");

    freelist_.resize(pools_);
    for (unsigned p = 0; p < pools_; ++p) {
        freelist_[p].reserve(rows_);
        for (int r = static_cast<int>(rows_) - 1;
             r >= static_cast<int>(pinned); --r)
            freelist_[p].push_back(static_cast<std::int32_t>(p * rows_ + r));
    }
    map_.assign(cfg.numCores,
                std::vector<std::int32_t>(kNumArchVecRegs, -1));
    ready_.assign(static_cast<std::size_t>(pools_) * rows_, 0);
    held_by_.assign(ready_.size(), kNoCore);
}

std::int32_t
RegFileModel::alloc(CoreId c)
{
    auto &fl = freelist_[poolOf(c)];
    if (fl.empty())
        return -1;
    const std::int32_t phys = fl.back();
    fl.pop_back();
    held_by_[phys] = c;
    return phys;
}

void
RegFileModel::free(CoreId c, std::int32_t phys)
{
    assert(phys >= 0);
    // A physical row freed after resetCore() already went back to the
    // freelist; the held_by_ tag detects the double-free and skips it.
    if (held_by_[phys] != c)
        return;
    held_by_[phys] = kNoCore;
    freelist_[poolOf(c)].push_back(phys);
}

std::int32_t
RegFileModel::mapping(CoreId c, int arch) const
{
    return map_[c].at(arch);
}

std::int32_t
RegFileModel::rename(CoreId c, int arch, std::int32_t phys)
{
    std::int32_t prev = map_[c].at(arch);
    map_[c].at(arch) = phys;
    return prev;
}

void
RegFileModel::resetCore(CoreId c)
{
    for (auto &m : map_[c])
        m = -1;
    auto &fl = freelist_[poolOf(c)];
    for (std::size_t phys = 0; phys < held_by_.size(); ++phys) {
        if (held_by_[phys] == c) {
            held_by_[phys] = kNoCore;
            fl.push_back(static_cast<std::int32_t>(phys));
        }
    }
}

unsigned
RegFileModel::freeCount(CoreId c) const
{
    return static_cast<unsigned>(freelist_[poolOf(c)].size());
}

template <class Self, class Ar>
void
RegFileModel::io(Self &s, Ar &ar)
{
    ar.section("regfile");
    ar.same(s.freelist_.size(), "checkpoint regfile pool count mismatch");
    for (auto &fl : s.freelist_) {
        ar.len(fl, s.ready_.size());
        for (auto &p : fl)
            ar.i64(p);
    }
    ar.same(s.map_.size(), "checkpoint regfile map count mismatch");
    for (auto &m : s.map_) {
        ar.same(m.size(), "checkpoint regfile map width mismatch");
        for (auto &p : m)
            ar.i64(p);
    }
    ar.same(s.ready_.size(), "checkpoint regfile row count mismatch");
    for (auto &c : s.ready_)
        ar.u64(c);
    ar.same(s.held_by_.size(), "checkpoint regfile holder count mismatch");
    for (auto &c : s.held_by_)
        ar.u16(c, s.map_.size(), "corrupt checkpoint (register holder)",
               kNoCore);
}

void RegFileModel::save(ckpt::Writer &w) const { io(*this, w); }
void RegFileModel::load(ckpt::Reader &r) { io(*this, r); }

} // namespace occamy
