package cluster

import "dexa/internal/telemetry"

// Metrics bundles the dexa_cluster_* instruments. Every field tolerates
// a nil registry (all handles become no-ops), so the cluster subsystem
// runs unchanged without telemetry wired.
type Metrics struct {
	// Replication: the leader-side feed and the follower-side tailer.
	FeedRequests   *telemetry.Counter
	FeedRecords    *telemetry.Counter
	FeedResets     *telemetry.Counter
	Applied        *telemetry.Counter
	Resets         *telemetry.Counter
	TailErrors     *telemetry.Counter
	LeaderSeq      *telemetry.Gauge
	LocalSeq       *telemetry.Gauge
	ReplicationLag *telemetry.Gauge

	// Batched feed: frames per answer and wire cost with/without the
	// negotiated flate compression.
	WalBatchFrames       *telemetry.Histogram
	WalCompressedBytes   *telemetry.Counter
	WalUncompressedBytes *telemetry.Counter

	// Scatter-gather: per-endpoint fan-outs and per-shard failures.
	ScatterRequests *telemetry.CounterVec // label: endpoint
	ShardFailures   *telemetry.CounterVec // label: shard
	ShardUp         *telemetry.GaugeVec   // label: shard

	// Search summaries: revalidations of a held summary, by the watch's
	// long-poll or by a call on a search's request path.
	SummaryRevalidations *telemetry.CounterVec // labels: shard, via
}

// NewMetrics registers the cluster instruments on reg (nil reg yields
// all-no-op handles).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		FeedRequests: reg.Counter("dexa_cluster_feed_requests_total",
			"Requests answered by the WAL replication feed."),
		FeedRecords: reg.Counter("dexa_cluster_feed_records_total",
			"WAL records streamed to followers."),
		FeedResets: reg.Counter("dexa_cluster_feed_resets_total",
			"Feed answers that carried a full-state reset stream."),
		Applied: reg.Counter("dexa_cluster_replicated_records_total",
			"Leader records applied by this follower."),
		Resets: reg.Counter("dexa_cluster_follower_resets_total",
			"Full-state resets this follower performed."),
		TailErrors: reg.Counter("dexa_cluster_tail_errors_total",
			"Failed tail rounds (network, decode, or apply errors)."),
		LeaderSeq: reg.Gauge("dexa_cluster_leader_seq",
			"Newest leader sequence observed by this follower."),
		LocalSeq: reg.Gauge("dexa_cluster_local_seq",
			"This follower's applied sequence."),
		ReplicationLag: reg.Gauge("dexa_cluster_replication_lag",
			"Records this follower is behind the leader (leader seq - local seq)."),
		WalBatchFrames: reg.Histogram("dexa_cluster_wal_batch_frames",
			"Frames per non-empty WAL feed answer.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		WalCompressedBytes: reg.Counter("dexa_cluster_wal_compressed_bytes_total",
			"On-the-wire bytes of deflate-compressed feed bodies."),
		WalUncompressedBytes: reg.Counter("dexa_cluster_wal_uncompressed_bytes_total",
			"Frame bytes streamed to followers before compression."),
		ScatterRequests: reg.CounterVec("dexa_cluster_scatter_requests_total",
			"Scatter-gather fan-outs by endpoint.", "endpoint"),
		ShardFailures: reg.CounterVec("dexa_cluster_shard_failures_total",
			"Per-shard scatter failures (timeout or error).", "shard"),
		ShardUp: reg.GaugeVec("dexa_cluster_shard_up",
			"Health-check verdict per shard (1 healthy, 0 down).", "shard"),
		SummaryRevalidations: reg.CounterVec("dexa_cluster_summary_revalidations_total",
			"Revalidations of another shard's search summary, by the watch (long-poll) or by a call on a search's request path.", "shard", "via"),
	}
}
