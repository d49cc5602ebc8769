GO ?= go

.PHONY: build test vet lint race chaos chaos-smoke migration-chaos migration-chaos-smoke integrity-chaos integrity-chaos-smoke overload-chaos overload-chaos-smoke tier1 bench fuzz-smoke train-smoke train-chaos serve-smoke serve-chaos serve-chaos-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...

# Race leg of the tier-1 loop: the concurrent retry/redial/breaker paths in
# the cluster client, the storage engine the chaos tests hammer, the WAL the
# replica catch-up tails, the fault-injection transport, the
# trainer/prefetch-pipeline concurrency, the checkpoint store, the metrics
# registry every hot path writes into, the serving tier's engine pool +
# HNSW index (concurrent insert/search/delete), the attribute store, the
# lock-free relation table on the sampling path, and the wire codec.
race: vet
	$(GO) test -race ./internal/cluster/... ./internal/storage/... ./internal/sampler/... ./internal/eventlog/... ./internal/faultinject/... ./internal/gnn/... ./internal/pipeline/... ./internal/view/... ./internal/checkpoint/... ./internal/obs/... ./internal/serve/... ./internal/ann/... ./internal/kvstore/... ./internal/cuckoo/... ./internal/wire/...

# Replication chaos drill: replica kill + failover + WAL-shipped rejoin,
# twice, under the race detector.
chaos: build
	$(GO) test -race -count=2 -run 'TestChaosReplicaFailoverAndCatchUp' ./internal/cluster/

# One fast chaos pass for PR CI; the full drills run nightly.
chaos-smoke: build
	$(GO) test -race -count=1 -run 'TestChaosReplicaFailoverAndCatchUp' ./internal/cluster/

# Elasticity chaos drill: live grow-and-rebalance under write load plus the
# three seeded migration-failure drills (source killed mid-copy, destination
# killed mid-WAL-replay, abort just before cutover), twice, under race.
migration-chaos: build
	$(GO) test -race -count=2 -run 'TestChaosElasticGrow|TestChaosMigration' ./internal/cluster/

# One fast elasticity pass for PR CI: the grow drill plus the last-moment
# abort (the two cutover-adjacent paths), a source killed mid-copy and a
# destination killed mid-replay (a resumed pull and a source that dies
# mid-drain), and a client dialed before routing init following the map
# (its first write after a grow, and reads racing its first adoption).
migration-chaos-smoke: build
	$(GO) test -race -count=1 -run 'TestChaosElasticGrow|TestChaosMigrationAbortBeforeCutover|TestChaosMigrationKillSourceMidCopy|TestChaosMigrationKillDestMidReplay|TestClientDialedBeforeInitFollowsMap|TestFirstAdoptionNeverMisroutesReads' ./internal/cluster/

# Anti-entropy chaos drill: asymmetric partition under write load healed
# into a scrubber-detected divergence + auto-repair, plus bit-flips in a WAL
# frame and a snapshot detected by CRC and repaired from the peer — twice,
# under race.
integrity-chaos: build
	$(GO) test -race -count=2 -run 'TestChaosPartitionScrubRepair|TestChaosScrubRepairsDiskCorruption' ./internal/cluster/

# One fast anti-entropy pass for PR CI: the partition-divergence drill (the
# path that exercises digest comparison, classification, and repair).
integrity-chaos-smoke: build
	$(GO) test -race -count=1 -run 'TestChaosPartitionScrubRepair' ./internal/cluster/

# Overload chaos drill: open-loop load past admission capacity with a live
# shard migration racing through it, asserting bounded interactive p99,
# priority-ordered shedding, an intact breaker, and no goroutine leak after
# a saturation storm — twice, under race.
overload-chaos: build
	$(GO) test -race -count=2 -run 'TestChaosOverloadBrownout|TestOverloadGoroutineLeakRegression' ./internal/cluster/

# One fast overload pass for PR CI: the brownout drill (admission gate,
# deadline propagation, shed/retry cooperation, and migration under load).
overload-chaos-smoke: build
	$(GO) test -race -count=1 -run 'TestChaosOverloadBrownout' ./internal/cluster/

tier1: test race

# Short fuzz pass for PR CI: frame/handshake parsing, the bounds-checked
# reader, every RPC payload decoder, the server's request dispatch (on an
# unrouted server and on one with a shard map, where the ownership and
# write-gate rules run), the
# WAL's record decoder, the PALM planner against its sort-based oracle, the
# vertex-id grouping against its map-based oracle, and the HNSW distance
# kernel against the pure-Go code and a float64 reference.
# go test allows one -fuzz pattern per invocation, hence eight runs.
# Corpus findings land in testdata/fuzz/ — commit them as regression seeds.
FUZZTIME ?= 15s
fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzHandleWireFrame -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzRecord -fuzztime $(FUZZTIME) ./internal/eventlog/
	$(GO) test -run '^$$' -fuzz FuzzPlan -fuzztime $(FUZZTIME) ./internal/palm/
	$(GO) test -run '^$$' -fuzz FuzzGrouping -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzSqDist -fuzztime $(FUZZTIME) ./internal/ann/

bench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end training smoke: one small pipelined run against the in-process
# store and one against a 2-shard in-process cluster.
train-smoke: build
	$(GO) run ./cmd/platod2gl-train -local -nodes 400 -epochs 2 -batch 32 -workers 2
	$(GO) run ./cmd/platod2gl-train -shards 2 -nodes 400 -epochs 2 -batch 32 -workers 4 -depth 8

# Training chaos drill: kill a shard mid-epoch, ride it out through the
# cluster client's retries + sampling degradation, SIGTERM-checkpoint, and
# resume — under the race detector.
train-chaos: build
	$(GO) test -race -count=1 -run 'TestTrainChaosKillShardAndResume|TestGracefulSigterm' ./cmd/platod2gl-train/

# End-to-end serving smoke: train a tiny checkpoint, boot platod2gl-serve
# against a 2-shard live-TCP cluster (and once in -local mode), query
# /embed + /knn against the true graph, and stop cleanly with no leaked
# goroutines — under the race detector.
serve-smoke: build
	$(GO) test -race -count=1 -run 'TestServeSmokeCluster|TestServeLocalMode' ./cmd/platod2gl-serve/

# Serving-under-churn drill: edge updates stream into the live cluster at a
# fixed qps while a closed-loop /knn driver hammers the API. Asserts no 5xx
# under load, bounded serve_refresh_lag_seconds, and post-churn recall
# recovery. Full variant (longer churn, more load) for nightly; one short
# pass for PR CI.
serve-chaos: build
	SERVE_CHURN_FULL=1 $(GO) test -race -count=2 -run 'TestServingUnderChurn' ./cmd/platod2gl-serve/

serve-chaos-smoke: build
	$(GO) test -race -count=1 -run 'TestServingUnderChurn' ./cmd/platod2gl-serve/
