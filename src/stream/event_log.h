// Dynamic-graph event stream: ordered insert/delete/update events for edges
// and node attributes, grouped into batches that are consumed atomically.
//
// The on-disk event log is the shared envelope of util/byteio.h
// (docs/robustness.md §6) with magic "ANEL", version 1, and this
// little-endian payload:
//   u32 num_batches
//   per batch: u64 sequence, u32 num_events,
//              per event: u8 kind, i32 u, i32 v, f64 value
// The envelope is checked before a single field is interpreted, so a
// truncated or bit-flipped log is rejected with a precise Status instead of
// half-replaying. All file access goes through `Env`, so the
// fault-injection suite covers the log the same way it covers checkpoints.
//
// ApplyEventBatch is transactional: a batch either applies completely or the
// graph is left untouched (the invalid event's index and batch sequence are
// named in the Status). Replaying the same log over the same seed graph is
// deterministic at every ANECI_THREADS value.
#ifndef ANECI_STREAM_EVENT_LOG_H_
#define ANECI_STREAM_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/env.h"
#include "util/status.h"

namespace aneci::stream {

enum class EventKind : uint8_t {
  kAddEdge = 0,       ///< Insert undirected edge (u, v).
  kRemoveEdge = 1,    ///< Delete undirected edge (u, v).
  kSetAttribute = 2,  ///< Set attribute column v of node u to `value`.
};

/// "add-edge", "remove-edge", "set-attribute".
const char* EventKindName(EventKind kind);

struct GraphEvent {
  EventKind kind = EventKind::kAddEdge;
  int32_t u = 0;  ///< Node id (edge endpoint / attribute row).
  int32_t v = 0;  ///< Edge endpoint / attribute column.
  double value = 0.0;  ///< kSetAttribute payload; ignored for edges.

  static GraphEvent AddEdge(int u, int v);
  static GraphEvent RemoveEdge(int u, int v);
  static GraphEvent SetAttribute(int node, int column, double value);
};

/// One deterministic consumption unit: the monitor, refresher and defense
/// all operate at batch granularity.
struct EventBatch {
  uint64_t sequence = 0;
  std::vector<GraphEvent> events;
};

/// Serialises to the full file byte string (header + CRC + payload).
std::string SerializeEventLog(const std::vector<EventBatch>& batches);

/// Validates and decodes file bytes. `origin` names the source in errors.
StatusOr<std::vector<EventBatch>> ParseEventLog(std::string_view bytes,
                                                const std::string& origin);

/// Atomic write through `env` (nullptr = Env::Default()).
Status SaveEventLog(const std::vector<EventBatch>& batches,
                    const std::string& path, Env* env = nullptr);

StatusOr<std::vector<EventBatch>> LoadEventLog(const std::string& path,
                                               Env* env = nullptr);

/// What applying one batch did. Redundant events (adding a present edge,
/// removing an absent one) are legal no-ops — replays and at-least-once
/// delivery must not poison the stream — and are tallied separately.
struct BatchApplyReport {
  int edges_added = 0;
  int edges_removed = 0;
  int attributes_updated = 0;
  int redundant = 0;
};

/// Applies every event of `batch` to `graph`, atomically: on any invalid
/// event (endpoint out of range, self-loop, attribute event on a graph
/// without attributes or with an out-of-range column) the graph is left
/// exactly as it was and the Status names the batch sequence and event
/// index. Node count is immutable under streaming.
StatusOr<BatchApplyReport> ApplyEventBatch(Graph* graph,
                                           const EventBatch& batch);

/// Sorted unique node ids named by the batch (edge endpoints and attribute
/// rows) — the seed set of the refresh frontier.
std::vector<int> TouchedNodes(const EventBatch& batch);

}  // namespace aneci::stream

#endif  // ANECI_STREAM_EVENT_LOG_H_
