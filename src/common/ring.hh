/**
 * @file
 * A FIFO of reused slots: a ring whose capacity is a power of two,
 * grown by doubling when a push finds it full.
 *
 * Elements are swapped in and left in place when popped, so a slot's
 * storage (a packet's payload buffer, say) outlives the element that
 * used it and comes back to the next push's caller. A ring that never
 * grows past its steady depth allocates nothing per element, and one
 * sized by a large bound allocates only as deep as it ever gets.
 */

#ifndef CLUMSY_COMMON_RING_HH
#define CLUMSY_COMMON_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace clumsy
{

/** A growable FIFO of reused slots (see the file doc). */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    /** The oldest element; the ring must not be empty. */
    T &front() { return slots_[head_]; }

    /**
     * Append @p v by swapping it into the tail slot: @p v gets back
     * whatever that slot last held.
     */
    void push(T &v)
    {
        if (size_ == slots_.size())
            grow();
        std::swap(slots_[(head_ + size_) & (slots_.size() - 1)], v);
        ++size_;
    }

    /** Drop the oldest element; its slot keeps it until reused. */
    void pop()
    {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /** Drop every element, keeping the slots. */
    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Unroll the ring into one twice its size (at least 8 slots). */
    void grow()
    {
        std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            std::swap(bigger[i],
                      slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace clumsy

#endif // CLUMSY_COMMON_RING_HH
