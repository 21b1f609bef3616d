#include "common/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "common/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace clumsy
{

namespace
{

// ASan keeps per-stack state (shadow bounds, fake frames): it must be
// told which stack is about to run before a switch (start) and which
// one was left once the new one runs (finish). TSan keeps one
// happens-before context per fiber and must be told which one runs
// next, immediately before the switch.

void
asanStart(void **fakeStack, const void *bottom, std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(fakeStack, bottom, bytes);
#else
    (void)fakeStack;
    (void)bottom;
    (void)bytes;
#endif
}

void
asanFinish(void *fakeStack, const void **bottom, std::size_t *bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fakeStack, bottom, bytes);
#else
    (void)fakeStack;
    (void)bottom;
    (void)bytes;
#endif
}

void *
tsanCurrent()
{
#if defined(__SANITIZE_THREAD__)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

void
tsanSwitch(void *fiber)
{
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(fiber, 0);
#else
    (void)fiber;
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body))
{
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapBytes_ = page + kStackBytes;
    map_ = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map_ == MAP_FAILED)
        fatal("cannot map a %zu-byte fiber stack", mapBytes_);
    // The stack grows down, so the guard is the lowest page.
    CLUMSY_ASSERT(mprotect(map_, page, PROT_NONE) == 0,
                  "cannot protect a fiber stack's guard page");

    CLUMSY_ASSERT(getcontext(&self_) == 0, "getcontext failed");
    self_.uc_stack.ss_sp = static_cast<char *>(map_) + page;
    self_.uc_stack.ss_size = kStackBytes;
    self_.uc_link = nullptr; // entry() never returns
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));

#if defined(__SANITIZE_THREAD__)
    tsanSelf_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanSelf_);
#endif
    munmap(map_, mapBytes_);
}

void
Fiber::resume()
{
    CLUMSY_ASSERT(!finished_, "resuming a finished fiber");
    void *fakeStack = nullptr;
    asanStart(&fakeStack, self_.uc_stack.ss_sp, kStackBytes);
    tsanCaller_ = tsanCurrent();
    tsanSwitch(tsanSelf_);
    CLUMSY_ASSERT(swapcontext(&caller_, &self_) == 0,
                  "swapcontext into a fiber failed");
    asanFinish(fakeStack, nullptr, nullptr);
}

void
Fiber::yield()
{
    switchOut(false);
}

void
Fiber::switchOut(bool final)
{
    // A final switch passes no fake-stack slot: ASan then frees this
    // fiber's fake frames, which nothing will return to.
    void *fakeStack = nullptr;
    asanStart(final ? nullptr : &fakeStack, callerStack_,
              callerStackBytes_);
    tsanSwitch(tsanCaller_);
    CLUMSY_ASSERT(swapcontext(&self_, &caller_) == 0,
                  "swapcontext out of a fiber failed");
    asanFinish(fakeStack, &callerStack_, &callerStackBytes_);
}

void
Fiber::entry(unsigned hi, unsigned lo) noexcept
{
    Fiber *const f = reinterpret_cast<Fiber *>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
    asanFinish(nullptr, &f->callerStack_, &f->callerStackBytes_);
    f->body_();
    f->finished_ = true;
    f->switchOut(true);
    panic("a finished fiber was resumed");
}

} // namespace clumsy
