// perfbench — global operator new replacement that counts calls.
//
// Kept in a translation unit of its own, away from every new-expression, so
// the replacement pair (malloc/free) is all the compiler sees here. The
// counter costs one relaxed load per allocation while it is off; only the
// traced pass turns it on.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_allocs{0};

}  // namespace

// Array new forwards here, and the nothrow forms call it too, so this one
// definition sees every default allocation on every thread.
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void count_allocs(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::int64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench
