//===- serve/ResultCache.cpp ----------------------------------------------===//

#include "serve/ResultCache.h"

#include "instrument/Profile.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <algorithm>

using namespace epre;

uint64_t epre::optionsFingerprint(const PipelineOptions &Opts) {
  // Canonical text rendering first: keeps the fingerprint independent of
  // enum numbering and trivially extensible when options grow fields.
  std::string S;
  S += "level=";
  S += optLevelName(Opts.Level);
  S += ";strategy=";
  S += preStrategyName(Opts.Strategy);
  S += ";gvn=";
  S += gvnEngineName(Opts.Engine);
  S += ";naming=";
  S += inputNamingName(Opts.Naming);
  S += ";fp-reassoc=";
  S += Opts.AllowFPReassoc ? '1' : '0';
  S += ";osr=";
  S += Opts.EnableStrengthReduction ? '1' : '0';
  // The attached profile steers speculative placement, so its *content*
  // (not its address) separates cache entries: the same source compiled
  // under two profiles must never alias, and "no profile" is its own key.
  S += ";profile=";
  if (Opts.ProfileIn)
    S += strprintf("%016llx",
                   (unsigned long long)hashString(Opts.ProfileIn->toJSON()));
  else
    S += "none";
  return hashString(S);
}

ResultCache::ResultCache(size_t ByteBudget, unsigned ShardCount)
    : Budget(ByteBudget) {
  if (ShardCount == 0)
    ShardCount = 8;
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I < ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
  ShardBudget = std::max<size_t>(Budget / ShardCount, 1);
}

bool ResultCache::lookup(uint64_t IRHash, uint64_t OptionsFP,
                         CachedFunction &Out) {
  Key K{IRHash, OptionsFP};
  Shard &S = shardFor(K);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
      Out = It->second->V;
      Hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResultCache::insert(uint64_t IRHash, uint64_t OptionsFP,
                         CachedFunction V) {
  Key K{IRHash, OptionsFP};
  Shard &S = shardFor(K);
  size_t Bytes = V.byteSize();
  uint64_t Evicted = 0;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      // A concurrent compile of the same key finished first; its payload is
      // identical by determinism, so just refresh recency.
      S.LRU.splice(S.LRU.begin(), S.LRU, It->second);
      return;
    }
    S.LRU.push_front(Entry{K, std::move(V), Bytes});
    S.Map[K] = S.LRU.begin();
    S.Bytes += Bytes;
    Insertions.fetch_add(1, std::memory_order_relaxed);
    while (S.Bytes > ShardBudget && !S.LRU.empty()) {
      Entry &Victim = S.LRU.back();
      S.Bytes -= Victim.Bytes;
      S.Map.erase(Victim.K);
      S.LRU.pop_back();
      ++Evicted;
    }
  }
  if (Evicted)
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
}

size_t ResultCache::bytes() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Bytes;
  }
  return N;
}

size_t ResultCache::entries() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Map.size();
  }
  return N;
}

void ResultCache::exportStats(StatsRegistry &R) const {
  R.counter("cache", "hits") += hits();
  R.counter("cache", "misses") += misses();
  R.counter("cache", "insertions") += insertions();
  R.counter("cache", "evictions") += evictions();
  R.counter("cache", "bytes") += bytes();
  R.counter("cache", "entries") += entries();
  R.counter("cache", "byte_budget") += byteBudget();
}

void ResultCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    S->LRU.clear();
    S->Map.clear();
    S->Bytes = 0;
  }
}
