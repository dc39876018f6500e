/**
 * @file
 * Fixed-capacity ring-buffer FIFO used for per-VC input buffers and NI
 * queues. No allocation after construction.
 */
#ifndef CATNAP_NOC_BUFFER_H
#define CATNAP_NOC_BUFFER_H

#include <cstddef>
#include <vector>

#include "common/log.h"
#include "common/phase.h"

namespace catnap {

/**
 * A bounded FIFO with O(1) push/pop backed by a ring buffer.
 *
 * @tparam T element type (value semantics)
 */
template <typename T>
class RingFifo
{
  public:
    /** Creates a FIFO holding at most @p capacity elements. */
    explicit RingFifo(std::size_t capacity)
        : slots_(capacity)
    {
        CATNAP_ASSERT(capacity > 0, "FIFO capacity must be positive");
    }

    /** Number of elements currently queued. */
    std::size_t size() const { return size_; }

    /** Maximum number of elements. */
    std::size_t capacity() const { return slots_.size(); }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** Free slots remaining. */
    std::size_t free_slots() const { return slots_.size() - size_; }

    /** Enqueues @p v; panics if full (callers must check credits first). */
    CATNAP_PHASE_READ void
    push(const T &v)
    {
        CATNAP_ASSERT(!full(), "push into full FIFO");
        slots_[wrap(head_ + size_)] = v;
        ++size_;
    }

    /** Oldest element; panics if empty. */
    const T &
    front() const
    {
        CATNAP_ASSERT(!empty(), "front of empty FIFO");
        return slots_[head_];
    }

    /** Mutable access to the oldest element; panics if empty. */
    T &
    front()
    {
        CATNAP_ASSERT(!empty(), "front of empty FIFO");
        return slots_[head_];
    }

    /** Removes and returns the oldest element; panics if empty. */
    CATNAP_PHASE_READ T
    pop()
    {
        CATNAP_ASSERT(!empty(), "pop from empty FIFO");
        T v = slots_[head_];
        head_ = wrap(head_ + 1);
        --size_;
        return v;
    }

    /** Element @p i positions behind the front (0 == front). */
    const T &
    at(std::size_t i) const
    {
        CATNAP_ASSERT(i < size_, "FIFO index out of range");
        return slots_[wrap(head_ + i)];
    }

    /** Drops all elements. */
    CATNAP_PHASE_READ void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Folds a position in [0, 2 * capacity) back into the ring: a
     * compare instead of a division on the per-flit path. */
    std::size_t
    wrap(std::size_t pos) const
    {
        return pos >= slots_.size() ? pos - slots_.size() : pos;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace catnap

#endif // CATNAP_NOC_BUFFER_H
