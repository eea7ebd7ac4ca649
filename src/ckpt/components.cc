/**
 * @file
 * Checkpoint field lists for the header-only components (Lsu,
 * ResourceTable, ConfigTable, LaneMgr).  Grouping them in one
 * translation unit keeps those headers free of the serialization
 * machinery; classes with their own .cc file define the hooks there.
 */

#include "ckpt/ckpt.hh"
#include "coproc/lsu.hh"
#include "coproc/tables.hh"
#include "lanemgr/lanemgr.hh"

namespace occamy
{

// ------------------------------------------------------------------ Lsu

template <class Self, class Ar>
void
Lsu::io(Self &s, Ar &ar, std::vector<Cycle> &lq, std::vector<Cycle> &sq)
{
    ar.section("lsu");
    for (std::vector<Cycle> *q : {&lq, &sq}) {
        ar.len(*q);
        for (Cycle &c : *q)
            ar.u64(c);
    }
    ar.counter(s.loads_);
    ar.counter(s.stores_);
}

void
Lsu::save(ckpt::Writer &w) const
{
    // A min-heap's drain order is its contents in ascending order.
    auto drained = [](MinHeap h) {
        std::vector<Cycle> v;
        for (; !h.empty(); h.pop())
            v.push_back(h.top());
        return v;
    };
    std::vector<Cycle> lq = drained(lq_), sq = drained(sq_);
    io(*this, w, lq, sq);
}

void
Lsu::load(ckpt::Reader &r)
{
    std::vector<Cycle> lq, sq;
    io(*this, r, lq, sq);
    ckpt::Reader::check(lq.size() <= lq_capacity_ &&
                            sq.size() <= sq_capacity_,
                        "checkpoint LSU occupancy exceeds queue capacity");
    lq_ = MinHeap(std::greater<Cycle>{}, std::move(lq));
    sq_ = MinHeap(std::greater<Cycle>{}, std::move(sq));
}

// -------------------------------------------------------- ResourceTable

template <class Self, class Ar>
void
ResourceTable::io(Self &s, Ar &ar)
{
    ar.section("rt");
    ar.same(s.core_.size(),
            "checkpoint resource table core count mismatch");
    for (auto &pc : s.core_) {
        ioPhaseOI(pc.oi, ar);
        ar.u32(pc.decision);
        ar.u32(pc.vl);
        ar.b(pc.status);
    }
    ar.u32(s.al_);
    ar.same(s.total_, "checkpoint resource table ExeBU count mismatch");
    ar.u32(s.faulted_);
}

void ResourceTable::save(ckpt::Writer &w) const { io(*this, w); }
void ResourceTable::load(ckpt::Reader &r) { io(*this, r); }

// ---------------------------------------------------------- ConfigTable

template <class Self, class Ar>
void
ConfigTable::io(Self &s, Ar &ar)
{
    ar.section("cfgtbl");
    ar.same(s.owner_.size(), "checkpoint config table size mismatch");
    for (auto &o : s.owner_)
        ar.u16(o, s.cores_, "corrupt checkpoint (config table owner)",
               kFaultedCore);
}

void ConfigTable::save(ckpt::Writer &w) const { io(*this, w); }
void ConfigTable::load(ckpt::Reader &r) { io(*this, r); }

// -------------------------------------------------------------- LaneMgr

template <class Self, class Ar>
void
LaneMgr::io(Self &s, Ar &ar)
{
    ar.section("lanemgr");
    ar.u64(s.plan_ready_at_);
    ar.u32(s.total_bus_);
    ar.counter(s.plans_made_);
}

void LaneMgr::save(ckpt::Writer &w) const { io(*this, w); }
void LaneMgr::load(ckpt::Reader &r) { io(*this, r); }

} // namespace occamy
