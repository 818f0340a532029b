//===- serve/ResultCache.h - Content-addressed pass-result cache -*- C++ -*-===//
///
/// \file
/// The compile server's memo table: per-function optimized ILOC text plus
/// the function's rendered remark/stat JSON, keyed on the *content* of the
/// input — the FNV-1a hash of the function's printed IR (the same canonical
/// text PassInstrumentation snapshots) combined with a fingerprint of every
/// output-affecting PipelineOptions field. Byte-identical functions
/// recompiled under identical options never re-run the pipeline; a changed
/// option or a changed body misses by construction.
///
/// The cache is sharded: the key picks one of N independent shards, each
/// with its own mutex, LRU list, and slice of the byte budget, so
/// concurrent connections rarely contend on one lock. Eviction is LRU by
/// accounted bytes (key + payload strings); an entry larger than a whole
/// shard's budget is admitted and then immediately evicted, i.e. such
/// functions are effectively uncacheable rather than an error.
///
/// Counters (hits/misses/insertions/evictions plus the live byte/entry
/// gauges) are atomics, exported into a StatsRegistry under "cache.*" names
/// (docs/observability.md) for the daemon's -stats-out document.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SERVE_RESULTCACHE_H
#define EPRE_SERVE_RESULTCACHE_H

#include "instrument/Statistic.h"
#include "pipeline/Pipeline.h"
#include "support/StringUtil.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace epre {

/// Everything the server memoizes for one compiled function. The strings
/// are spliced verbatim into response documents, so a hit is bit-identical
/// to the fresh compile that populated it.
struct CachedFunction {
  std::string Name;        ///< function name (response labeling)
  std::string ILOC;        ///< optimized printFunction() text
  std::string RemarksJSON; ///< JSON array of this function's remarks
  std::string StatsJSON;   ///< flat {"pass.counter":N} object

  size_t byteSize() const {
    return sizeof(CachedFunction) + Name.size() + ILOC.size() +
           RemarksJSON.size() + StatsJSON.size();
  }
};

/// Fingerprint of every PipelineOptions field that can change the optimized
/// output or its per-function counters/remarks (level, strategy, engine,
/// naming, FP-reassociation, strength reduction, and the attached
/// profile's content). Observability plumbing (Instr, Verify) is excluded:
/// it never changes what the pipeline produces.
uint64_t optionsFingerprint(const PipelineOptions &Opts);

class ResultCache {
public:
  /// \p ByteBudget caps the accounted payload bytes across all shards
  /// (each shard gets an equal slice). \p ShardCount 0 picks the default.
  explicit ResultCache(size_t ByteBudget, unsigned ShardCount = 0);

  /// On hit, copies the entry into \p Out, refreshes its LRU position, and
  /// counts a hit; counts a miss otherwise.
  bool lookup(uint64_t IRHash, uint64_t OptionsFP, CachedFunction &Out);

  /// Inserts (or refreshes) the entry, then evicts LRU entries until the
  /// shard is back under its byte budget. A concurrent duplicate insert
  /// keeps the first entry (the payloads are identical by construction).
  void insert(uint64_t IRHash, uint64_t OptionsFP, CachedFunction V);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  uint64_t insertions() const {
    return Insertions.load(std::memory_order_relaxed);
  }
  /// Live gauges, summed over shards (racy reads are fine for reporting).
  size_t bytes() const;
  size_t entries() const;
  size_t byteBudget() const { return Budget; }

  /// Writes the counters into \p R under "cache.*" (the observability
  /// contract: cache.hits, cache.misses, cache.insertions, cache.evictions,
  /// cache.bytes, cache.entries, cache.byte_budget).
  void exportStats(StatsRegistry &R) const;

  /// Drops every entry (counters keep accumulating).
  void clear();

private:
  struct Key {
    uint64_t IRHash;
    uint64_t OptionsFP;
    bool operator==(const Key &O) const {
      return IRHash == O.IRHash && OptionsFP == O.OptionsFP;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return size_t(hashCombine(K.IRHash, K.OptionsFP));
    }
  };
  struct Entry {
    Key K;
    CachedFunction V;
    size_t Bytes;
  };
  struct Shard {
    std::mutex M;
    std::list<Entry> LRU; ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> Map;
    size_t Bytes = 0;
  };

  Shard &shardFor(const Key &K) {
    return *Shards[KeyHash()(K) % Shards.size()];
  }

  size_t Budget;
  size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Insertions{0};
};

} // namespace epre

#endif // EPRE_SERVE_RESULTCACHE_H
