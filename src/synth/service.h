/**
 * @file
 * The synthesis service: the single seam every resynthesis request
 * flows through. It composes the content-addressed cache (cache.h)
 * with the shared worker pool (pool.h) in front of the raw
 * resynthesize() front end, and is shared across portfolio workers.
 *
 * Determinism contract:
 *  - every request, synchronous or submitted, consumes exactly one
 *    fork() from the caller's RNG — hit or miss, cache on or off, run
 *    or dropped by a full queue — and synthesizes from that child
 *    stream, so the caller's stream never depends on the cache's
 *    contents or on the pool, and a warm run replays the cold run's
 *    parent stream exactly;
 *  - a hit re-validates the stored circuit's HS distance against the
 *    request's ε before use, so it can never loosen the error bound.
 *
 * Asynchronous requests always run on the service's worker pool. A
 * pool nobody sized is created by the first submit(), with one worker
 * per hardware thread.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "ir/circuit.h"
#include "support/mutex.h"
#include "support/rng.h"
#include "support/thread_annotations.h"
#include "synth/cache.h"
#include "synth/pool.h"
#include "synth/resynth.h"

namespace guoq {
namespace synth {

/** One service-mediated resynthesis outcome, with cache attribution. */
struct SynthOutcome
{
    ResynthResult result;
    bool cacheHit = false;
    bool cacheMiss = false;
    bool cacheStore = false;
};

/** Per-run cache-traffic tally, accumulated by the consumers. */
struct ResynthCounters
{
    long hits = 0;
    long misses = 0;
    long stores = 0;

    void add(const SynthOutcome &o)
    {
        hits += o.cacheHit ? 1 : 0;
        misses += o.cacheMiss ? 1 : 0;
        stores += o.cacheStore ? 1 : 0;
    }
};

/** Cache + pool front end for resynthesize(). */
class SynthService
{
  public:
    SynthService() = default;

    void enableCache(bool on) { cacheEnabled_.store(on); }
    bool cacheEnabled() const { return cacheEnabled_.load(); }
    SynthCache &cache() { return cache_; }

    /**
     * (Re)size the worker pool; @p workers <= 0 tears it down, and the
     * next submit() then creates the default-sized one. Waits for the
     * old pool's queued and running requests. Not meant to be called
     * while optimizer runs are in flight: their later submits would
     * land on the new pool.
     */
    void configurePool(int workers, std::size_t queue_capacity = 64)
        EXCLUDES(poolMutex_);
    /** The pool's worker count; 0 before the pool exists. */
    int poolWorkers() const EXCLUDES(poolMutex_);
    /** The pool's queue high-water mark; 0 before the pool exists. */
    long poolQueuePeak() const EXCLUDES(poolMutex_);

    /** Synchronous cache-aware resynthesis (see contract above). */
    SynthOutcome resynthesize(const ir::Circuit &sub,
                              const ResynthOptions &opts,
                              support::Rng &rng);

    /**
     * Asynchronous resynthesis on the pool, which the first call
     * creates when configurePool() has not sized it. Forks @p rng once
     * on the calling thread (see contract above). Returns nullopt when
     * the bounded queue is full — the request is dropped, not queued.
     */
    std::optional<std::future<SynthOutcome>>
    submit(ir::Circuit sub, ResynthOptions opts, support::Rng &rng)
        EXCLUDES(poolMutex_);

    /** Enable the cache and merge `<dir>`'s persistent tier into it. */
    bool loadCacheDir(const std::string &dir, std::string *err = nullptr);

    /** Persist the cache to `<dir>` (atomic rewrite). */
    bool saveCacheDir(const std::string &dir,
                      std::string *err = nullptr) const;

    static std::string cacheFilePath(const std::string &dir);

    /** The process-wide instance consumers default to. */
    static SynthService &global();

  private:
    /** One request on the child stream @p rng (cache, then synthesis). */
    SynthOutcome run(const ir::Circuit &sub, const ResynthOptions &opts,
                     support::Rng &rng);

    std::atomic<bool> cacheEnabled_{false};
    SynthCache cache_;
    // poolMutex_ guards the pointer, so concurrent first submits create
    // one pool; the Pool itself is internally synchronized.
    mutable support::Mutex poolMutex_;
    std::unique_ptr<Pool> pool_ GUARDED_BY(poolMutex_);
};

} // namespace synth
} // namespace guoq
