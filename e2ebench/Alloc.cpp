//===- e2ebench/Alloc.cpp - Counting global allocator ----------------------===//
//
// Part of the libquals end-to-end benchmark.
//
//===----------------------------------------------------------------------===//

#include "Alloc.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

#include <malloc.h>

namespace {

std::atomic<bool> Counting{false};

/// Set once the calling thread's ThreadCounts is destroyed: allocations
/// made by later thread-exit destructors are not counted.
thread_local bool ThreadExited = false;

/// One thread's counters. Atomics (relaxed) only so processAllocCounts()
/// can read them from another thread without a data race; each is written
/// by its own thread alone.
struct ThreadCounts {
  std::atomic<uint64_t> AllocBytes{0};
  std::atomic<uint64_t> FreedBytes{0};
  ThreadCounts *Next = nullptr;
  ThreadCounts *Prev = nullptr;

  ThreadCounts();
  ~ThreadCounts();
};

/// Registry of live threads' counters plus the totals of exited threads.
/// An intrusive list guarded by a plain mutex: registering must not
/// allocate, since it runs inside operator new.
struct Registry {
  std::mutex Mutex;
  ThreadCounts *Head = nullptr;
  uint64_t RetiredAlloc = 0;
  uint64_t RetiredFreed = 0;
};

Registry &registry() {
  static Registry *R = new (std::malloc(sizeof(Registry))) Registry();
  return *R;
}

ThreadCounts::ThreadCounts() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Next = R.Head;
  if (Next)
    Next->Prev = this;
  R.Head = this;
}

ThreadCounts::~ThreadCounts() {
  ThreadExited = true;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.RetiredAlloc += AllocBytes.load(std::memory_order_relaxed);
  R.RetiredFreed += FreedBytes.load(std::memory_order_relaxed);
  if (Prev)
    Prev->Next = Next;
  else
    R.Head = Next;
  if (Next)
    Next->Prev = Prev;
}

ThreadCounts &threadCounts() {
  thread_local ThreadCounts TC;
  return TC;
}

bool counting() {
  return Counting.load(std::memory_order_relaxed) && !ThreadExited;
}

void noteAlloc(void *P) {
  if (!P || !counting())
    return;
  ThreadCounts &TC = threadCounts();
  TC.AllocBytes.store(TC.AllocBytes.load(std::memory_order_relaxed) +
                          malloc_usable_size(P),
                      std::memory_order_relaxed);
}

void noteFree(void *P) {
  if (!P || !counting())
    return;
  ThreadCounts &TC = threadCounts();
  TC.FreedBytes.store(TC.FreedBytes.load(std::memory_order_relaxed) +
                          malloc_usable_size(P),
                      std::memory_order_relaxed);
}

void *allocOrThrow(std::size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    throw std::bad_alloc();
  noteAlloc(P);
  return P;
}

void *alignedAllocOrThrow(std::size_t Size, std::align_val_t Align) {
  void *P = nullptr;
  if (posix_memalign(&P, static_cast<std::size_t>(Align), Size ? Size : 1))
    throw std::bad_alloc();
  noteAlloc(P);
  return P;
}

void release(void *P) {
  noteFree(P);
  std::free(P);
}

} // namespace

void qb::setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

qb::AllocCounts qb::threadAllocCounts() {
  ThreadCounts &TC = threadCounts();
  AllocCounts C;
  C.AllocBytes = TC.AllocBytes.load(std::memory_order_relaxed);
  C.FreedBytes = TC.FreedBytes.load(std::memory_order_relaxed);
  return C;
}

qb::AllocCounts qb::processAllocCounts() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  AllocCounts C;
  C.AllocBytes = R.RetiredAlloc;
  C.FreedBytes = R.RetiredFreed;
  for (ThreadCounts *TC = R.Head; TC; TC = TC->Next) {
    C.AllocBytes += TC->AllocBytes.load(std::memory_order_relaxed);
    C.FreedBytes += TC->FreedBytes.load(std::memory_order_relaxed);
  }
  return C;
}

// The replaced global allocation functions.

void *operator new(std::size_t Size) { return allocOrThrow(Size); }
void *operator new[](std::size_t Size) { return allocOrThrow(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocOrThrow(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return allocOrThrow(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return alignedAllocOrThrow(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return alignedAllocOrThrow(Size, Align);
}

void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { release(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}
void operator delete(void *P, std::align_val_t) noexcept { release(P); }
void operator delete[](void *P, std::align_val_t) noexcept { release(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
