/**
 * @file
 * The three introduced tables of Section 4.2.1: the resource table
 * (ResourceTbl, holding the five EM-SIMD dedicated registers of
 * Table 1), and the two configuration tables (Dispatch.Cfg and
 * RegFile.Cfg) recording per-ExeBU / per-RegBlk ownership.
 */

#ifndef OCCAMY_COPROC_TABLES_HH
#define OCCAMY_COPROC_TABLES_HH

#include <cassert>
#include <vector>

#include "ckpt/fwd.hh"
#include "common/types.hh"
#include "isa/inst.hh"

namespace occamy
{

/**
 * ResourceTbl: (4*C + 1) registers — <OI>, <decision>, <VL>, <status>
 * per core plus the shared free-lane register <AL> (in ExeBUs).
 */
class ResourceTable
{
  public:
    struct PerCore
    {
        PhaseOI oi;              ///< <OI>, 0 when outside any phase.
        unsigned decision = 0;   ///< <decision>: suggested VL in BUs.
        unsigned vl = 0;         ///< <VL>: configured VL in BUs.
        bool status = false;     ///< <status> of the last <VL> write.
    };

    ResourceTable(unsigned cores, unsigned total_bus)
        : core_(cores), al_(total_bus), total_(total_bus)
    {
    }

    PerCore &core(CoreId c) { return core_.at(c); }
    const PerCore &core(CoreId c) const { return core_.at(c); }
    unsigned numCores() const { return static_cast<unsigned>(core_.size()); }

    /** <AL>: free ExeBUs available for allocation. */
    unsigned al() const { return al_; }

    /** ExeBUs permanently lost to hard faults. */
    unsigned faulted() const { return faulted_; }

    /** ExeBUs still usable: configured total minus faulted units. */
    unsigned usableBus() const { return total_ - faulted_; }

    /** A hard fault consumed a *free* ExeBU: shrink <AL>. */
    void
    loseFree()
    {
        assert(al_ > 0);
        --al_;
        ++faulted_;
    }

    /** A hard fault consumed an ExeBU *owned* by core @p c: shrink its
     *  <VL> in place (the unit simply stops computing; the drain /
     *  re-request protocol is unchanged). */
    void
    loseOwned(CoreId c)
    {
        PerCore &pc = core_.at(c);
        assert(pc.vl > 0);
        --pc.vl;
        ++faulted_;
    }

    /** Atomically retarget core @p c from its current VL to @p vl BUs.
     *  Caller must have verified availability. */
    void
    retarget(CoreId c, unsigned vl)
    {
        PerCore &pc = core_.at(c);
        assert(pc.vl + al_ >= vl);
        al_ = pc.vl + al_ - vl;
        pc.vl = vl;
        pc.status = true;
    }

    /** OIs of all cores, in core order (input to the LaneMgr). */
    std::vector<PhaseOI>
    allOIs() const
    {
        std::vector<PhaseOI> ois;
        ois.reserve(core_.size());
        for (const auto &pc : core_)
            ois.push_back(pc.oi);
        return ois;
    }

    /** Checkpoint hooks (src/ckpt/components.cc). */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    std::vector<PerCore> core_;
    unsigned al_;
    unsigned total_;
    unsigned faulted_ = 0;
};

/**
 * A ConfigTbl: ownership of N homogeneous units (ExeBUs or RegBlks).
 * Each entry ranges over {free, core0, core1, ...} (Section 4.2.1).
 */
class ConfigTable
{
  public:
    /** @p units homogeneous units; owners are core ids below
     *  @p cores (a checkpoint naming any other owner is rejected). */
    ConfigTable(unsigned units, unsigned cores)
        : owner_(units, kNoCore), cores_(cores)
    {
    }

    CoreId owner(unsigned unit) const { return owner_.at(unit); }
    unsigned size() const { return static_cast<unsigned>(owner_.size()); }

    unsigned
    countOwned(CoreId c) const
    {
        unsigned n = 0;
        for (CoreId o : owner_)
            if (o == c)
                ++n;
        return n;
    }

    unsigned countFree() const { return countOwned(kNoCore); }

    /** Take @p unit permanently offline (ExeBU hard fault). A faulted
     *  unit is neither free nor owned, so release()/assign() skip it
     *  and the <AL> == countFree() invariant is preserved. */
    void disable(unsigned unit) { owner_.at(unit) = kFaultedCore; }

    /** Free every unit owned by core @p c. */
    void
    release(CoreId c)
    {
        for (CoreId &o : owner_)
            if (o == c)
                o = kNoCore;
    }

    /**
     * Assign @p n free units to core @p c.
     * @return true on success (enough free units existed).
     */
    bool
    assign(CoreId c, unsigned n)
    {
        if (countFree() < n)
            return false;
        for (CoreId &o : owner_) {
            if (n == 0)
                break;
            if (o == kNoCore) {
                o = c;
                --n;
            }
        }
        return true;
    }

    /** Checkpoint hooks (src/ckpt/components.cc). */
    void save(ckpt::Writer &w) const;
    void load(ckpt::Reader &r);

  private:
    template <class Self, class Ar> static void io(Self &s, Ar &ar);

    std::vector<CoreId> owner_;
    unsigned cores_;
};

} // namespace occamy

#endif // OCCAMY_COPROC_TABLES_HH
