/**
 * @file
 * Event sinks: where instrumentation points deliver their records.
 *
 * The simulator holds a borrowed `EventSink *` that is null by default;
 * every instrumentation site tests the pointer (and the sink's category
 * mask, a non-virtual member read) before building an Event, so a
 * sink-less run pays one branch per site and nothing else.
 *
 * RingSink is the standard implementation: a fixed-capacity ring of
 * Events plus a string-interning table. When the ring wraps, the oldest
 * events are dropped and counted -- recording never allocates after
 * construction and never throws. The capacity is reserved address
 * space; resident memory grows with the events actually recorded. One
 * sink serves exactly one `System` run on one thread (the same
 * single-thread contract as common/stats); the parallel runner routes
 * one private sink per job.
 */

#ifndef OCCAMY_OBS_SINK_HH
#define OCCAMY_OBS_SINK_HH

#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/events.hh"

namespace occamy::obs
{

/** A completed, ordered event trace (what a sink hands back). */
struct TraceBuffer
{
    /** Events in recording order (timestamps non-decreasing). */
    std::vector<Event> events;

    /** Interned names; Event payloads reference entries by index. */
    std::vector<std::string> strings;

    /** Events discarded because the ring wrapped. */
    std::uint64_t dropped = 0;

    /** @return the interned string for @p id ("?" if out of range). */
    const std::string &str(std::uint64_t id) const;

    bool empty() const { return events.empty(); }
};

/** Abstract destination for simulation events. */
class EventSink
{
  public:
    explicit EventSink(EventMask mask = kEvAll) : mask_(mask) {}
    virtual ~EventSink() = default;

    /** @return true if the sink records @p k's category. Sites use
     *  this to skip payload construction entirely. */
    bool wants(EventKind k) const { return (mask_ & categoryOf(k)) != 0; }

    /** Record one event (the sink re-checks the mask). */
    void record(const Event &e)
    {
        if (wants(e.kind))
            push(e);
    }

    /** Intern @p s, returning its stable id for Event payloads. */
    virtual std::uint64_t internString(std::string_view s) = 0;

    /**
     * Checkpoint support: the intern table in id order, so a restored
     * run re-derives identical string ids for identical names. Sinks
     * without a table (or that don't care) return empty / ignore.
     */
    virtual std::vector<std::string> internedStrings() const { return {}; }
    virtual void restoreInternedStrings(const std::vector<std::string> &) {}

    EventMask mask() const { return mask_; }

  protected:
    virtual void push(const Event &e) = 0;

  private:
    EventMask mask_;
};

/** Record the (cycle, kind, core, a, b, x, y) event on @p sink, if
 *  any: one branch when tracing is off, and the sink's mask check when
 *  on. */
inline void
emit(EventSink *sink, EventKind k, Cycle cycle, CoreId core,
     std::uint64_t a = 0, std::uint64_t b = 0, double x = 0.0,
     double y = 0.0)
{
    if (sink)
        sink->record({cycle, k, core, a, b, x, y});
}

/** Record the (cycle, kind, core, id of @p name, b) event of a kind
 *  with a string payload on @p sink, interning @p name only if the
 *  sink wants the kind: the one interning call site outside src/obs. */
inline void
emit(EventSink *sink, EventKind k, Cycle cycle, CoreId core,
     std::string_view name, std::uint64_t b)
{
    assert(kindHasStringPayload(k));
    if (sink && sink->wants(k))
        sink->record({cycle, k, core, sink->internString(name), b});
}

/** Fixed-capacity drop-oldest ring sink. */
class RingSink : public EventSink
{
  public:
    /**
     * @param capacity Maximum events retained (oldest dropped beyond).
     * @param mask Categories to record.
     */
    explicit RingSink(std::size_t capacity = 1u << 20,
                      EventMask mask = kEvAll);
    // A copy would hold only the recorded events' storage, so its
    // next push could allocate.
    RingSink(const RingSink &) = delete;
    RingSink &operator=(const RingSink &) = delete;

    std::uint64_t internString(std::string_view s) override;

    std::vector<std::string> internedStrings() const override
    {
        return strings_;
    }
    void restoreInternedStrings(const std::vector<std::string> &s) override;

    /** Events recorded and retained, oldest first. */
    std::size_t size() const;

    /** Events discarded because the ring wrapped. */
    std::uint64_t dropped() const { return dropped_; }

    /** Copy the retained trace out, oldest first. */
    TraceBuffer snapshot() const;

    /** Move the trace out, leaving the sink empty (strings kept). */
    TraceBuffer take();

    /** Discard all retained events and the drop count. */
    void clear();

  protected:
    void push(const Event &e) override;

  private:
    /** Retained events; reserved to capacity_ and filled on demand. */
    std::vector<Event> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0;      ///< Next write position.
    std::uint64_t dropped_ = 0;

    std::vector<std::string> strings_;
    std::unordered_map<std::string, std::uint64_t> string_ids_;
};

/**
 * Deferred-forwarding sink for the cluster engines' tick phase.
 *
 * On every traced machine, each ClusterEngine's components record into
 * a private BufferSink while the engines tick, possibly concurrently
 * and ahead of the coordinator; it drains the buffers into the real
 * sink in cluster-id order before its own events of each cycle, so the
 * stream is the same for any thread count and window shape. String
 * ids are interned into a buffer-local table at record time (recording
 * stays allocation-light and lock-free) and remapped to the downstream
 * sink's table at drain time — only the event kinds for which
 * kindHasStringPayload() holds carry such ids.
 *
 * Each event is tagged with the cycle its engine was ticking when it
 * was recorded (setCycle()), and each local string with the cycle it
 * was interned at. An engine may tick a window of cycles before the
 * coordinator drains it, so drainUpTo() forwards one cycle prefix at a
 * time: draining every buffer cycle by cycle in cluster order yields
 * the stream a per-cycle drain would have produced, string ids
 * included.
 *
 * The buffer is transient: the coordinator drains it to the current
 * cycle before every pause boundary, so it never appears in
 * checkpoints (the downstream sink's intern table is always complete
 * at any pause boundary).
 */
class BufferSink : public EventSink
{
  public:
    /** @param downstream The real sink whose mask gates recording.
     *  Borrowed — must outlive the buffer. */
    explicit BufferSink(EventSink &downstream)
        : EventSink(downstream.mask()), downstream_(downstream)
    {
    }

    std::uint64_t internString(std::string_view s) override;

    /** The cycle the recording engine is ticking (tags what follows). */
    void setCycle(Cycle c) { cycle_ = c; }

    /** Forward, in recording order, every buffered event tagged with a
     *  cycle <= @p upto (remapping string payloads), interning the
     *  strings of those cycles downstream first. Coordinator only. */
    void drainUpTo(Cycle upto);

    /** Tag of the oldest undrained event; kCycleNever when empty. */
    Cycle nextCycle() const
    {
        return head_ < events_.size() ? events_[head_].first : kCycleNever;
    }

    std::size_t pending() const { return events_.size() - head_; }

  protected:
    void push(const Event &e) override { events_.emplace_back(cycle_, e); }

  private:
    EventSink &downstream_;
    Cycle cycle_ = 0;
    std::vector<std::pair<Cycle, Event>> events_;
    std::size_t head_ = 0;      ///< First undrained entry of events_.

    std::vector<std::string> strings_;
    std::vector<Cycle> string_cycles_;  ///< Intern cycle per local id.
    std::unordered_map<std::string, std::uint64_t> string_ids_;
    /** Local string id -> downstream id; extended lazily at drain. */
    std::vector<std::uint64_t> remap_;
};

} // namespace occamy::obs

#endif // OCCAMY_OBS_SINK_HH
