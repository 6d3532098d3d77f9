#include "core/runtime.hpp"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/plan_io.hpp"

namespace rtl {

std::size_t Runtime::default_plan_cache_capacity() {
  if (const char* v = std::getenv("RTL_PLAN_CACHE_CAP");
      v != nullptr && *v != '\0') {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v, &end, 10);
    // Garbage and out-of-range values fall back to the default rather
    // than silently re-creating an effectively unbounded cache.
    if (errno == 0 && end != nullptr && *end == '\0' && parsed >= 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return 64;
}

std::string Runtime::default_plan_cache_dir() {
  if (const char* v = std::getenv("RTL_PLAN_CACHE_DIR");
      v != nullptr && *v != '\0') {
    return v;
  }
  return {};
}

std::size_t Runtime::PlanKeyHash::operator()(
    const PlanKey& k) const noexcept {
  // The fingerprint is already a high-quality 64-bit hash; fold the small
  // discriminators in with multiply-xor steps.
  std::uint64_t h = k.fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.n));
  mix(static_cast<std::uint64_t>(k.edges));
  mix(static_cast<std::uint64_t>(k.scheduling));
  mix(static_cast<std::uint64_t>(k.execution));
  mix(static_cast<std::uint64_t>(k.window));
  mix(static_cast<std::uint64_t>(k.instrumented));
  return static_cast<std::size_t>(h);
}

void Runtime::insert_locked(const PlanKey& key,
                            std::shared_ptr<const Plan> plan) {
  lru_.emplace_front(key, std::move(plan));
  cache_.emplace(key, lru_.begin());
  if (cache_.size() > capacity_) {
    // Evict the least-recently-used plan; callers holding the shared_ptr
    // keep it alive, the cache just forgets it.
    cache_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const Plan> Runtime::disk_lookup_locked(const PlanKey& key) {
  namespace fs = std::filesystem;
  const DoconsiderOptions normalized{key.scheduling, key.execution,
                                     /*parallel_inspector=*/false,
                                     key.window, key.instrumented};
  const fs::path path =
      fs::path(dir_) / plan_cache_file_name(key.fingerprint, key.n,
                                            key.edges, team_.size(),
                                            normalized);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ++disk_misses_;
    return nullptr;
  }
  try {
    std::shared_ptr<const Plan> plan = load_plan(in);
    // The file name encodes the key, but the name is not trusted: the
    // restored plan must answer exactly the request made (and fit this
    // Runtime's team) or it is rejected and re-inspected.
    const DoconsiderOptions& o = plan->options();
    if (plan->fingerprint() == key.fingerprint && plan->size() == key.n &&
        plan->graph().num_edges() == key.edges &&
        plan->nproc() == team_.size() && o.scheduling == key.scheduling &&
        o.execution == key.execution && o.window == key.window &&
        o.instrumented == key.instrumented) {
      ++disk_hits_;
      return plan;
    }
  } catch (const PlanIoError&) {
    // Corrupt / truncated / foreign image: fall through to reject.
  }
  ++disk_rejects_;
  return nullptr;
}

void Runtime::disk_store_locked(const PlanKey& key, const Plan& plan) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(dir_) / plan_cache_file_name(key.fingerprint, key.n,
                                            key.edges, team_.size(),
                                            plan.options());
  try {
    std::error_code ec;
    fs::create_directories(dir_, ec);  // best effort; write reports errors
    save_plan_file(plan, path.string());
    ++disk_writes_;
  } catch (const PlanIoError&) {
    // A read-only or vanished cache directory must not fail the solve;
    // the plan simply stays memory-only (observable: disk_writes does not
    // advance).
  }
}

std::shared_ptr<const Plan> Runtime::plan_for(DependenceGraph graph,
                                              DoconsiderOptions options) {
  const DoconsiderOptions normalized = normalized_options(options);
  const std::uint64_t fingerprint = graph.fingerprint();
  const PlanKey key{fingerprint,          graph.size(),
                    graph.num_edges(),    normalized.scheduling,
                    normalized.execution, normalized.window,
                    normalized.instrumented};
  // `parallel_inspector` is deliberately absent from the key: it changes
  // how fast the artifact is built, never what is built.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    // Refresh the LRU position: this entry is now the most recent.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  // Memory miss: consult the disk tier before paying the inspector.
  if (!dir_.empty()) {
    if (std::shared_ptr<const Plan> plan = disk_lookup_locked(key)) {
      if (capacity_ > 0) insert_locked(key, plan);
      return plan;
    }
  }
  ++misses_;
  // Private trusted constructor: reuses the fingerprint computed for the
  // key instead of hashing the CSR arrays a second time (plain `new`
  // because make_shared cannot reach a private constructor).
  const std::shared_ptr<const Plan> plan(
      new Plan(team_, std::move(graph), options, fingerprint));
  if (!dir_.empty()) disk_store_locked(key, *plan);
  if (capacity_ == 0) return plan;  // caching disabled: build-and-return
  insert_locked(key, plan);
  return plan;
}

void Runtime::adopt_plan(std::shared_ptr<const Plan> plan) {
  if (!plan) {
    throw std::invalid_argument("Runtime::adopt_plan: null plan");
  }
  if (plan->nproc() != team_.size()) {
    throw std::invalid_argument(
        "Runtime::adopt_plan: plan compiled for " +
        std::to_string(plan->nproc()) + " processors, team has " +
        std::to_string(team_.size()));
  }
  const DoconsiderOptions& o = plan->options();  // already normalized
  const PlanKey key{plan->fingerprint(), plan->size(),
                    plan->graph().num_edges(), o.scheduling, o.execution,
                    o.window, o.instrumented};
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  if (const auto it = cache_.find(key); it != cache_.end()) {
    // Already present: refresh, keep the existing artifact.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  insert_locked(key, std::move(plan));
}

Runtime::CacheCounters Runtime::plan_cache_counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {hits_,       misses_,      evictions_,   cache_.size(),
          disk_hits_,  disk_misses_, disk_writes_, disk_rejects_};
}

Runtime::Metrics Runtime::metrics_snapshot() const {
  return {plan_cache_counters(), team_.exec_counters(), team_.size()};
}

void Runtime::clear_plan_cache() {
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  lru_.clear();
}

}  // namespace rtl
