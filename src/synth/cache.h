/**
 * @file
 * The content-addressed synthesis cache: resynthesis results keyed by
 * the subcircuit's unitary canonicalized up to global phase plus the
 * request's target gate set, ε tier, and synthesizer caps. The map is
 * sharded (one mutex per cache-line-aligned shard) so every portfolio
 * worker can probe it concurrently without false sharing, and an
 * optional on-disk tier persists entries across runs in a versioned,
 * corruption-tolerant text format (see docs/FORMATS.md).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "ir/circuit.h"
#include "linalg/complex_matrix.h"
#include "support/mutex.h"
#include "synth/resynth.h"

namespace guoq {
namespace synth {

/**
 * Quarter-decade bucket of an ε threshold: requests whose ε land in
 * the same tier may share cache entries (each hit still re-validates
 * against the request's own ε). Non-positive ε (exact synthesis) maps
 * to a dedicated sentinel tier.
 */
int epsilonTier(double epsilon);

/**
 * Hash of @p u canonicalized up to global phase: the matrix is
 * rotated so its first significantly nonzero element (row-major) is
 * real positive, then each entry is quantized to a 2^-26 grid and
 * FNV-1a hashed. Circuits equal up to global phase collide; matrices
 * differing by more than the quantization grid do not.
 */
std::uint64_t canonicalUnitaryHash(const linalg::ComplexMatrix &u);

/** Content address of one resynthesis request. */
struct CacheKey
{
    std::uint64_t unitaryHash = 0;
    int set = 0; //!< static_cast<int>(ir::GateSetKind)
    int epsTier = 0;
    int numQubits = 0;
    int maxQubits = 0;
    int maxEntanglers = 0;
    int finiteMaxGates = 0;

    bool operator==(const CacheKey &other) const = default;
};

/** Key for @p u under the caps and thresholds in @p opts. */
CacheKey makeCacheKey(const linalg::ComplexMatrix &u, int num_qubits,
                      const ResynthOptions &opts);

struct CacheKeyHash
{
    std::size_t operator()(const CacheKey &k) const;
};

/**
 * One cached outcome. Failures are cached too (success = false) so a
 * warm run replays the cold run's trajectory byte for byte instead of
 * re-searching doomed requests.
 */
struct CacheEntry
{
    bool success = false;
    ir::Circuit circuit;   //!< native result when success
    double distance = 1.0; //!< HS distance charged by the cold run
};

/** Sharded concurrent map from CacheKey to CacheEntry. */
class SynthCache
{
  public:
    explicit SynthCache(std::size_t shard_count = kDefaultShards);

    /** True (and *out filled) when @p key is present. */
    bool lookup(const CacheKey &key, CacheEntry *out) const;

    /**
     * Insert @p entry unless the key is already present (first write
     * wins, so concurrent workers agree on one canonical result).
     * Returns true when this call inserted.
     */
    bool store(const CacheKey &key, CacheEntry entry);

    std::size_t size() const;
    void clear();

    /**
     * Merge entries from the versioned text file at @p path. A
     * mismatched magic/version line ignores the whole file (returns
     * false); a truncated or corrupted record keeps every entry
     * parsed before it (still returns true). A missing file is not
     * an error (returns true, loads nothing).
     */
    bool load(const std::string &path, std::string *err = nullptr);

    /** Atomically (temp file + rename) write all entries to @p path. */
    bool save(const std::string &path, std::string *err = nullptr) const;

    /**
     * v2: written by the L-BFGS instantiation. A v1 file (the Adam
     * synthesizer's) is ignored, so its cached failures are not
     * replayed against a fitter that solves many of those blocks.
     */
    static constexpr const char *kFileMagic = "guoq-synth-cache-v2";
    static constexpr std::size_t kDefaultShards = 16;

  private:
    struct alignas(64) Shard
    {
        mutable support::Mutex mutex;
        std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> map
            GUARDED_BY(mutex);
    };

    Shard &shardFor(const CacheKey &key) const;

    std::unique_ptr<Shard[]> shards_;
    std::size_t shardCount_;
};

} // namespace synth
} // namespace guoq
