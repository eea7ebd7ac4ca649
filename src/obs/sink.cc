#include "obs/sink.hh"

#include <algorithm>

namespace occamy::obs
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::PhaseBegin: return "phase_begin";
      case EventKind::PhaseEnd: return "phase_end";
      case EventKind::Dispatch: return "dispatch";
      case EventKind::Issue: return "issue";
      case EventKind::Retire: return "retire";
      case EventKind::RenameStall: return "rename_stall";
      case EventKind::OiUpdate: return "oi_update";
      case EventKind::RooflineEval: return "roofline_eval";
      case EventKind::PartitionDecision: return "partition_decision";
      case EventKind::PartitionPlan: return "partition_plan";
      case EventKind::VlRequest: return "vl_request";
      case EventKind::VlResolve: return "vl_resolve";
      case EventKind::VlApply: return "vl_apply";
      case EventKind::DramRead: return "dram_read";
      case EventKind::DramWrite: return "dram_write";
      case EventKind::BatchDispatch: return "batch_dispatch";
      case EventKind::SchedFastForward: return "sched_fast_forward";
      case EventKind::FaultInject: return "fault_inject";
      case EventKind::FaultRecover: return "fault_recover";
      case EventKind::PartitionDegrade: return "partition_degrade";
      case EventKind::WatchdogTrip: return "watchdog_trip";
      case EventKind::SystemBoot: return "system_boot";
      case EventKind::CheckpointSave: return "checkpoint_save";
      case EventKind::CheckpointRestore: return "checkpoint_restore";
      case EventKind::JobArrival: return "job_arrival";
      case EventKind::JobAdmit: return "job_admit";
      case EventKind::JobComplete: return "job_complete";
      case EventKind::SloViolation: return "slo_violation";
      case EventKind::ClusterArbiterPlan: return "cluster_arbiter_plan";
      case EventKind::ClusterArbiterMigrate:
        return "cluster_arbiter_migrate";
      case EventKind::JobDefer: return "job_defer";
      case EventKind::JobShed: return "job_shed";
      case EventKind::OverloadEnter: return "overload_enter";
      case EventKind::OverloadExit: return "overload_exit";
    }
    return "unknown";
}

EventMask
parseEventMask(const std::string &spec)
{
    EventMask mask = 0;
    std::string token;
    auto apply = [&mask](const std::string &t) {
        if (t == "all")
            mask |= kEvAll;
        else if (t == "phase")
            mask |= kEvPhase;
        else if (t == "pipeline")
            mask |= kEvPipeline;
        else if (t == "partition")
            mask |= kEvPartition;
        else if (t == "reconfig")
            mask |= kEvReconfig;
        else if (t == "mem")
            mask |= kEvMem;
        else if (t == "sched")
            mask |= kEvSched;
        else if (t == "engine")
            mask |= kEvEngine;
        else if (t == "fault")
            mask |= kEvFault;
        else if (t == "traffic")
            mask |= kEvTraffic;
        else if (t == "cluster")
            mask |= kEvCluster;
    };
    for (char c : spec) {
        if (c == ',') {
            apply(token);
            token.clear();
        } else {
            token.push_back(c);
        }
    }
    apply(token);
    return mask;
}

const std::string &
TraceBuffer::str(std::uint64_t id) const
{
    static const std::string unknown = "?";
    return id < strings.size()
               ? strings[static_cast<std::size_t>(id)]
               : unknown;
}

RingSink::RingSink(std::size_t capacity, EventMask mask)
    : EventSink(mask), capacity_(std::max<std::size_t>(capacity, 1))
{
    // Reserve, don't fill: only the pages events land on get touched.
    ring_.reserve(capacity_);
}

std::uint64_t
RingSink::internString(std::string_view s)
{
    auto it = string_ids_.find(std::string(s));
    if (it != string_ids_.end())
        return it->second;
    const std::uint64_t id = strings_.size();
    strings_.emplace_back(s);
    string_ids_.emplace(strings_.back(), id);
    return id;
}

void
RingSink::restoreInternedStrings(const std::vector<std::string> &s)
{
    strings_ = s;
    string_ids_.clear();
    for (std::size_t i = 0; i < strings_.size(); ++i)
        string_ids_.emplace(strings_[i], i);
}

std::size_t
RingSink::size() const
{
    return ring_.size();
}

void
RingSink::push(const Event &e)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(e); // Filling: head_ == size() until the wrap.
    } else {
        ring_[head_] = e;
        ++dropped_;
    }
    head_ = (head_ + 1) % capacity_;
}

TraceBuffer
RingSink::snapshot() const
{
    TraceBuffer out;
    const std::size_t count = ring_.size();
    out.events.reserve(count);
    const std::size_t first = (head_ + capacity_ - count) % capacity_;
    for (std::size_t i = 0; i < count; ++i)
        out.events.push_back(ring_[(first + i) % capacity_]);
    out.strings = strings_;
    out.dropped = dropped_;
    return out;
}

TraceBuffer
RingSink::take()
{
    TraceBuffer out = snapshot();
    clear();
    return out;
}

void
RingSink::clear()
{
    ring_.clear(); // Keeps the reserved capacity.
    head_ = 0;
    dropped_ = 0;
}

std::uint64_t
BufferSink::internString(std::string_view s)
{
    auto it = string_ids_.find(std::string(s));
    if (it != string_ids_.end())
        return it->second;
    const std::uint64_t id = strings_.size();
    strings_.emplace_back(s);
    string_cycles_.push_back(cycle_);
    string_ids_.emplace(strings_.back(), id);
    return id;
}

void
BufferSink::drainUpTo(Cycle upto)
{
    // Intern this prefix's new local strings downstream first, in
    // local-id order, so the downstream table grows in the
    // deterministic merge order. Engines tick cycles in order, so the
    // strings of cycles <= upto are a prefix of the local table.
    while (remap_.size() < strings_.size() &&
           string_cycles_[remap_.size()] <= upto)
        remap_.push_back(
            downstream_.internString(strings_[remap_.size()]));
    for (; head_ < events_.size() && events_[head_].first <= upto;
         ++head_) {
        Event e = events_[head_].second;
        if (kindHasStringPayload(e.kind))
            e.a = remap_[static_cast<std::size_t>(e.a)];
        downstream_.record(e);
    }
    if (head_ == events_.size()) {
        events_.clear();
        head_ = 0;
    }
}

} // namespace occamy::obs
