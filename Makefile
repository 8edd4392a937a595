GO ?= go

.PHONY: ci fmt vet vet-e2e build test race race-store race-match race-lifecycle race-columnar race-cluster race-search cluster-smoke bench bench-smoke bench-overhead bench-e2e fuzz experiments

ci: fmt vet vet-e2e build race race-store race-match race-lifecycle race-columnar race-cluster race-search cluster-smoke bench-smoke bench-overhead

# Fails when any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# e2ebench is its own module, so the root's vet and build never compile
# it: a change to an API it calls would pass them and break the
# benchmark. Vetting it type-checks every package there, tests included.
vet-e2e:
	cd e2ebench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The store's concurrency contract (many readers, one writer, compaction
# in between) and the serving layer's singleflight path, checked with
# more iterations than the catch-all race run gives them. The second
# line hammers the group committer specifically: concurrent Put/PutBatch
# and Delete racing Flush and Snapshot against the single committer
# goroutine, at higher iteration counts than the package-wide pass; it
# also reruns the seeded random histories (leader, cut-and-reopen
# recovery, follower apply, journal), the follower's compaction at a
# replication gap, an in-window tail served while the writer lock is
# held, and reads of a record's set, hash and version — in the store,
# and through /generate's answer — racing a writer that alternates two
# contents.
race-store:
	$(GO) test -race -count=2 ./internal/store/ ./internal/serve/
	$(GO) test -race -count=4 -run 'TestGroupCommit|TestPutBatch|TestStoreParallelPut|TestCrashRecovery|TestStoreRandomHistory|TestApplyReplicatedCompactsAtGap|TestTailSince|TestGetVersionedConsistent|TestGenerateAnswersOneRecord' ./internal/store/ ./internal/serve/

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for a full measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Catalog-index concurrency: feasibility reads racing Update/Remove
# rebuilds, matrix builds racing index flips (one snapshot per build),
# and concurrent calls on one kept IncrementalMatrix racing flips, plus
# its random histories, with more iterations than the catch-all race
# run gives them.
race-match:
	$(GO) test -race -count=2 -run 'TestCatalogIndex|TestMatchMatrix|TestFindSubstitutes|TestIncrementalMatrix' ./internal/match/

# Lifecycle concurrency: concurrent probe sweeps, /watch long-pollers
# racing log appends (through the shared change signal, park and drain
# latch of internal/longpoll), repair-queue approvals racing enqueues,
# and /catalog and /modules/{id} reads (the /catalog memo among them)
# racing availability flips, with more iterations than the catch-all
# race run gives them.
race-lifecycle:
	$(GO) test -race -count=2 ./internal/lifecycle/ ./internal/longpoll/
	$(GO) test -race -count=2 -run 'TestLifecycle|TestWatch|TestRepairs|TestSubstitutesCache|TestServePreStop|TestCatalog' ./internal/serve/

# Columnar concurrency: the shared symbol table hammered from parallel
# store writers, interning racing lookups, and the matrix mutation
# replay against the dense oracle at several worker widths.
race-columnar:
	$(GO) test -race -count=2 -run 'TestSymbolTable|TestStoreParallelPut|TestIncrementalMatrix' ./internal/dataexample/ ./internal/store/ ./internal/match/

# Cluster concurrency: WAL feed long-pollers racing appends and drains,
# follower tails racing leader truncation/reset, scatter-gather rounds
# racing shard failures, the store's replication cursor, and the
# change signal, park, drain latch and backoff of internal/longpoll
# they all share, with more iterations than the catch-all race run
# gives them; the summary watch's health verdicts (down peers found in
# time, a recovered one up again) ten times over.
race-cluster:
	$(GO) test -race -count=2 ./internal/cluster/ ./internal/longpoll/
	$(GO) test -race -count=10 -run TestWatchJudgesPeerHealth ./internal/cluster/
	$(GO) test -race -count=2 -run 'TestCluster|TestWatchDrain|TestReplication|TestTail|TestApplyReplicated|TestResetReplicated' ./internal/serve/ ./internal/store/

# Serving-tier gate: the full 252-module catalog sharded three ways must
# answer /matches and /substitutes byte-identically to a single-node
# oracle, a scatter /substitutes must contact exactly the shards owning
# a feasible candidate (so a dead shard owning none leaves the answer
# complete), a warm one must only revalidate the target's examples with
# its owner (one 304, no scatter), a /search must answer every query
# from the receiving shard's index equal to the oracle's with no
# request-path call once its watch holds every other shard's summary
# (a write reaching a peer through the watch, a drained shard turning
# searches partial, a rebuilt index never taken for unchanged), and
# dexa-load must produce a latency-percentile report from a two-shard
# cluster on a tiny request budget. Gates results, not timings — safe on
# any host.
cluster-smoke:
	$(GO) test -run 'TestClusterSmokeFullCatalog|TestClusterSubstitutesContactsFeasibleOwners|TestClusterSubstitutesDeadShardWithoutFeasibleCandidates|TestClusterSubstitutesScatterSpan|TestClusterSubstitutesWarm|TestClusterSearchLocal|TestClusterSearchWatched|TestClusterSearchRestartedPeer|TestClusterMatchesContactsOnlyInfoWhenUnchanged|TestClusterMatchesSpan' -count=1 ./internal/serve/
	$(GO) test -run 'TestRun' -count=1 ./cmd/dexa-load/

# Search concurrency: queries and pagination racing Update/Remove on the
# live index, the availability hook firing from parallel registry
# mutations, and the serve-layer search/compose endpoints (single-node
# and scatter-gather; TestComposeDuringFlips races /compose's cached
# per-version view, its lazy class partition and its memo of chains and
# verified plans against availability flips and store writes;
# TestComposeFullCatalogBodies serves every golden request of the full
# simulated catalog twice and compares each spliced body, first rendered
# and then from the plan entries kept with the memoised plans, with a
# whole encode of a per-call planner's plans), with more iterations than
# the catch-all race run gives them. The last line races
# one shared planner view, partition and memo, over the whole simulated
# catalog.
race-search:
	$(GO) test -race -count=2 ./internal/search/
	$(GO) test -race -count=2 -run 'TestSearch|TestClusterSearch|TestCompose' ./internal/serve/
	$(GO) test -race -count=2 -run 'TestPlanViewMatchesPerCall' ./internal/compose/

# Telemetry-overhead gate: generation with a live metrics registry must
# stay within 5% of the no-op recorder. TestTelemetryOverhead alternates
# the two in one-generation rounds and gates on the median per-round
# ratio, remeasuring once before it fails. go test ./... runs it too
# (not under -short or -race); this target runs it on its own.
bench-overhead:
	$(GO) test -run '^TestTelemetryOverhead$$' -count=1 -v .

# Full measurement run: every benchmark ten times, summarised by
# cmd/dexa-bench as each benchmark's median ns/op with its quartiles and
# allocs/op, and each family's sibling ratios. The root package alone
# takes about 8 minutes on a 2-core host, too close to go test's default
# 10-minute timeout. A subset:
#   go test -run '^$' -bench MatchMatrix -benchmem -count 10 ./internal/match | go run ./cmd/dexa-bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 10 -timeout 30m ./... | $(GO) run ./cmd/dexa-bench

# End-to-end benchmark: the e2ebench harness's own tests, then ten runs
# of one workload (seeds 1..10) reported as each end-to-end metric's
# median and quartiles. Pick the workload with WORKLOAD=lookup|plan|
# churn|scatter. Ten runs of the default length plus their set-ups take
# about five minutes, so ci does not run it.
WORKLOAD ?= plan
bench-e2e:
	cd e2ebench && $(GO) test ./...
	bash e2ebench/run.sh --workload $(WORKLOAD) --spread 10

# Longer fuzz budgets: every Fuzz target in the module fuzzes for 30 s,
# one target at a time (go test -fuzz takes one target per run). Tier-1
# runs only their seed corpora; a failing input lands under the
# package's testdata/fuzz/ and becomes a permanent seed once committed.
# Twelve targets take about six minutes, so ci does not run it.
fuzz:
	for dir in $$(grep -rl --include='*_test.go' --exclude-dir=e2ebench '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s $$dir || exit 1; \
		done; \
	done

experiments:
	$(GO) run ./cmd/dexa-experiments
