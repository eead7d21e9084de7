# Test selections shared by the Makefile, scripts/check.sh and
# scripts/bench.sh, which all source this file: edit the lists here
# only.
#
# BENCH_LIST / BENCH_PKG_LIST select the hot-path micro-benchmark
# sweep.
#
# CHAOS_LIST / CHAOS_PKG_LIST select the seeded chaos soak: the
# fault-injection sweep (failed runs, corrupt series, broken stores at
# 0%/5%/20%), the fault unit tests, the serving layer's
# overload/shutdown/drain paths, the batch endpoints (per-job error
# isolation under injected faults, sync/async determinism), the sharded
# store's crash/eviction/migration paths, the cluster plane's node-level
# chaos (lease failover, requeue, partition, seeded worker kills), the
# Cleaner seam (registry, per-cleaner cache-key separation, Bayesian
# determinism across worker counts), the fingerprint subsystem
# (embedding determinism, index rebuilds, classify caching across index
# versions), and the shared worker pool and crew (cancellation, and no
# goroutine outliving a pool call, a crew or an SGBRT fit).
#
# FUZZ_LIST holds the bounded fuzz targets as package:target pairs, one
# per decoder of untrusted bytes: the serialised-ensemble loader, the
# client's SSE frame reader and the CSV loader.

BENCH_LIST='Fit|BuildTree|PredictAll|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|PrioritySchedule|StreamFanout'
BENCH_PKG_LIST='./internal/sgbrt/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/'

CHAOS_LIST='Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Migrate|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle|Priority|Crew|Leak'
CHAOS_PKG_LIST='. ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/parallel/ ./internal/sgbrt/'

FUZZ_LIST='./internal/sgbrt/:FuzzLoad ./pkg/client/:FuzzReadEvent .:FuzzLoadCSV'
