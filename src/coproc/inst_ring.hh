/**
 * @file
 * Arena-backed ring of in-flight DynInsts.
 *
 * The co-processor's per-core pipeline queues (instruction pool, ROB,
 * EM-SIMD queue) used to be std::deque<DynInst>. A deque of ~112-byte
 * records places 4-5 instructions per 512-byte chunk and chases the
 * chunk map on every front/back access, which is exactly the access
 * pattern of the per-cycle commit/rename/issue stages. Every queue the
 * coproc keeps is *bounded by configuration* (pool by instPoolEntries,
 * ROB by robEntries, EMQ by its fixed depth), so each is now one
 * contiguous arena allocated at construction and indexed as a circular
 * buffer: a single allocation per queue for the machine's lifetime, no
 * per-push allocation, and linear walks touch consecutive cache lines.
 *
 * Only the operations the pipeline stages use are provided: FIFO
 * push_back/pop_front, random access (the ROB is indexed by seq -
 * robBase), mid-queue erase (watchdog <VL> cancellation), and forward
 * iteration (checkpointing). Overflow is a programming error — callers
 * gate on canEnqueue()/capacity checks first — and asserts.
 */

#ifndef OCCAMY_COPROC_INST_RING_HH
#define OCCAMY_COPROC_INST_RING_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "coproc/dyninst.hh"

namespace occamy
{

/** Fixed-capacity contiguous FIFO of DynInsts. */
class InstRing
{
  public:
    explicit InstRing(std::size_t capacity)
        : slots_(capacity == 0 ? 1 : capacity)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    DynInst &operator[](std::size_t i)
    {
        assert(i < size_);
        return slots_[wrap(head_ + i)];
    }
    const DynInst &operator[](std::size_t i) const
    {
        assert(i < size_);
        return slots_[wrap(head_ + i)];
    }

    DynInst &front() { return (*this)[0]; }
    const DynInst &front() const { return (*this)[0]; }
    DynInst &back() { return (*this)[size_ - 1]; }
    const DynInst &back() const { return (*this)[size_ - 1]; }

    void push_back(const DynInst &d)
    {
        assert(size_ < slots_.size() && "InstRing overflow");
        slots_[wrap(head_ + size_)] = d;
        ++size_;
    }

    void pop_front()
    {
        assert(size_ > 0);
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the element at logical index @p i, shifting the tail
     *  down. O(size) — used only on the rare watchdog-cancel path. */
    void erase_at(std::size_t i)
    {
        assert(i < size_);
        for (std::size_t k = i + 1; k < size_; ++k)
            slots_[wrap(head_ + k - 1)] = slots_[wrap(head_ + k)];
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Empty the ring, then hold @p n default entries (checkpoint
     *  restore fills them in place). */
    void resize(std::size_t n)
    {
        assert(n <= slots_.size() && "InstRing overflow");
        clear();
        std::fill_n(slots_.begin(), n, DynInst{});
        size_ = n;
    }

    /** Forward iterator over [0, size): enough for range-for walks and
     *  the checkpoint writer. */
    template <class Ring, class Ref>
    class Iter
    {
      public:
        Iter(Ring *r, std::size_t i) : r_(r), i_(i) {}
        Ref operator*() const { return (*r_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }
        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Ring *r_;
        std::size_t i_;
    };
    using iterator = Iter<InstRing, DynInst &>;
    using const_iterator = Iter<const InstRing, const DynInst &>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::size_t wrap(std::size_t i) const
    {
        const std::size_t n = slots_.size();
        return i >= n ? i - n : i;
    }

    std::vector<DynInst> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace occamy

#endif // OCCAMY_COPROC_INST_RING_HH
