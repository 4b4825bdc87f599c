// Small-buffer-optimized, move-only callables for the simulator hot path.
//
// Every event the Simulator executes carries a callback; with std::function
// each capture beyond a couple of words costs a heap allocation and a
// type-erasure indirection per event. Function<Sig> inlines captures up to
// kInlineSize (64) bytes directly in the object. Larger captures spill to a
// block taken from a thread-local size-class free list (16-byte classes up
// to 512 bytes), so a continuation that captures another Function — and
// therefore never fits inline — still recycles memory instead of calling
// malloc per event. Only captures above 512 bytes or over-aligned ones go to
// operator new. Function is move-only, which also lets callbacks own
// move-only state (unique_ptr, another Function) that std::function cannot
// hold.
//
// Callback is the scheduling currency: Simulator::Schedule constructs one
// straight into its event slot (Function::Emplace), and the event fires
// there — slab slots never move, so a callback is not relocated between
// schedule and fire. The layers above (coherence, PCIe, OS, NIC) pass their
// continuations as Function types.
#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace lauberhorn {

// Spill storage for captures too large for a Function's inline buffer, and
// (through Allocator) for small per-event container allocations.
// Each thread keeps one free list per 16-byte size class; a released block
// goes back on the list of the thread that releases it and is reused by that
// thread's next spill of the same class. A thread's lists are returned to
// operator delete when it exits. Under AddressSanitizer a free-listed block
// is poisoned, so touching a destroyed capture is still reported.
namespace spill {

inline constexpr size_t kClassBytes = 16;
inline constexpr size_t kMaxPooledBytes = 512;
inline constexpr size_t kNumClasses = kMaxPooledBytes / kClassBytes;

constexpr size_t ClassOf(size_t size) { return (size + kClassBytes - 1) / kClassBytes - 1; }
constexpr size_t BytesOf(size_t size_class) { return (size_class + 1) * kClassBytes; }

// A free-listed block is off limits to everything but the list itself.
inline void Poison([[maybe_unused]] void* block, [[maybe_unused]] size_t size_class) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, BytesOf(size_class));
#endif
}
inline void Unpoison([[maybe_unused]] void* block, [[maybe_unused]] size_t size_class) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, BytesOf(size_class));
#endif
}

struct FreeLists {
  void* head[kNumClasses] = {};
  bool registered = false;  // this thread's exit hook is installed
  bool released = false;    // the exit hook ran; bypass the lists from now on
};
// Constant-initialized and trivially destructible: no TLS guard on access.
inline thread_local FreeLists t_free_lists;

// Returns every free-listed block of the calling thread to operator delete
// when the thread exits.
struct ExitHook {
  ~ExitHook() {
    FreeLists& lists = t_free_lists;
    for (size_t c = 0; c < kNumClasses; ++c) {
      while (void* block = lists.head[c]) {
        Unpoison(block, c);
        lists.head[c] = *static_cast<void**>(block);
        ::operator delete(block);
      }
    }
    lists.released = true;
  }
};

inline void RegisterExitHook(FreeLists& lists) {
  static thread_local ExitHook hook;
  (void)hook;
  lists.registered = true;
}

inline void* Allocate(size_t size_class) {
  FreeLists& lists = t_free_lists;
  if (void* block = lists.head[size_class]) {
    Unpoison(block, size_class);
    lists.head[size_class] = *static_cast<void**>(block);
    return block;
  }
  return ::operator new(BytesOf(size_class));
}

inline void Release(void* block, size_t size_class) {
  FreeLists& lists = t_free_lists;
  if (lists.released) {
    ::operator delete(block);
    return;
  }
  if (!lists.registered) {
    RegisterExitHook(lists);
  }
  *static_cast<void**>(block) = lists.head[size_class];
  lists.head[size_class] = block;
  Poison(block, size_class);
}

// A standard allocator over the free lists, for containers whose small
// allocations come and go per simulated event (hash-set nodes, staged DMA
// payloads). Requests up to kMaxPooledBytes are pooled; larger ones use
// operator new. Stateless: every instance can free what another allocated.
template <typename T>
struct Allocator {
  static_assert(alignof(T) <= alignof(std::max_align_t), "over-aligned type");
  using value_type = T;

  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}  // NOLINT: rebinding is implicit

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes == 0 || bytes > kMaxPooledBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(spill::Allocate(ClassOf(bytes)));
  }
  void deallocate(T* block, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes == 0 || bytes > kMaxPooledBytes) {
      ::operator delete(block);
    } else {
      spill::Release(block, ClassOf(bytes));
    }
  }

  template <typename U>
  friend bool operator==(const Allocator&, const Allocator<U>&) {
    return true;
  }
};

}  // namespace spill

template <typename Sig>
class Function;

template <typename R, typename... Args>
class Function<R(Args...)> {
 public:
  // Inline capture budget, eight words. A Simulator event slot
  // (generation, heap position, callback) is then 96 bytes.
  static constexpr size_t kInlineSize = 64;

  Function() = default;
  Function(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Function> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  Function(F&& f) {  // NOLINT: implicit, mirrors std::function
    Construct<D>(std::forward<F>(f));
  }

  Function(Function&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Function& operator=(Function&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Function& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  ~Function() { Reset(); }

  // Replaces the target with `f`, constructed in place: a callable is built
  // directly in this object's storage (or its spill block) with no
  // intermediate Function. An rvalue Function is moved in.
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, Function>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "Function is move-only: pass std::move(fn)");
      *this = std::move(f);
    } else {
      static_assert(std::is_invocable_r_v<R, D&, Args...>,
                    "callable does not match the Function signature");
      Reset();
      Construct<D>(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(storage_),
                        std::forward<Args>(args)...);
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  friend bool operator==(const Function& f, std::nullptr_t) { return !f; }
  friend bool operator==(std::nullptr_t, const Function& f) { return !f; }
  friend bool operator!=(const Function& f, std::nullptr_t) { return static_cast<bool>(f); }
  friend bool operator!=(std::nullptr_t, const Function& f) { return static_cast<bool>(f); }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-constructs dst from src and destroys src (src storage, not *this).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  // Spilled captures of ordinary alignment up to 512 bytes use the pool.
  template <typename D>
  static constexpr bool kPooled = sizeof(D) <= spill::kMaxPooledBytes &&
                                  alignof(D) <= alignof(std::max_align_t);

  // Requires ops_ == nullptr.
  template <typename D, typename F>
  void Construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else if constexpr (kPooled<D>) {
      constexpr size_t kClass = spill::ClassOf(sizeof(D));
      void* block = spill::Allocate(kClass);
      try {
        *reinterpret_cast<D**>(storage_) = ::new (block) D(std::forward<F>(f));
      } catch (...) {
        spill::Release(block, kClass);
        throw;
      }
      ops_ = &kHeapOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(std::forward<Args>(args)...);
      },
      /*relocate=*/[](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      /*destroy=*/[](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* s, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(s)))(std::forward<Args>(args)...);
      },
      /*relocate=*/[](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *std::launder(reinterpret_cast<D**>(src));
      },
      /*destroy=*/[](void* s) {
        D* target = *std::launder(reinterpret_cast<D**>(s));
        if constexpr (kPooled<D>) {
          target->~D();
          spill::Release(target, spill::ClassOf(sizeof(D)));
        } else {
          delete target;
        }
      },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

// The simulator's event payload: a nullary continuation.
using Callback = Function<void()>;

}  // namespace lauberhorn

#endif  // SRC_SIM_CALLBACK_H_
