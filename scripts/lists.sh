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
# overload/shutdown/drain paths, the batch scheduler/coalescer (per-job
# error isolation under injected faults), the sharded store's
# crash/eviction/migration paths, the cluster plane's node-level chaos
# (lease failover, requeue, partition, seeded worker kills), the Cleaner
# seam (registry, per-cleaner cache-key separation, Bayesian
# determinism across worker counts), and the fingerprint subsystem
# (embedding determinism, index rebuilds, classify caching across index
# versions).

BENCH_LIST='Fit|BuildTree|PredictAll|RankPairs|Distance|BatchSchedule|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|PrioritySchedule|StreamFanout'
BENCH_PKG_LIST='./internal/sgbrt/ ./internal/interact/ ./internal/dtw/ ./internal/batch/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/'

CHAOS_LIST='Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Coalesce|Shard|Evict|Migrate|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle|Priority'
CHAOS_PKG_LIST='. ./internal/fault/ ./internal/serve/ ./internal/batch/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/'
