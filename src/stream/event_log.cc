#include "stream/event_log.h"

#include <algorithm>
#include <utility>

#include "util/byteio.h"

namespace aneci::stream {
namespace {

constexpr uint32_t kFormatVersion = 1;
constexpr size_t kEventBytes = 1 + 4 + 4 + 8;  // kind, u, v, value.

std::string EventContext(const EventBatch& batch, size_t index) {
  return "event " + std::to_string(index) + " of batch " +
         std::to_string(batch.sequence);
}

}  // namespace

GraphEvent GraphEvent::AddEdge(int u, int v) {
  return {EventKind::kAddEdge, u, v, 0.0};
}

GraphEvent GraphEvent::RemoveEdge(int u, int v) {
  return {EventKind::kRemoveEdge, u, v, 0.0};
}

GraphEvent GraphEvent::SetAttribute(int node, int column, double value) {
  return {EventKind::kSetAttribute, node, column, value};
}

std::string SerializeEventLog(const std::vector<EventBatch>& batches) {
  std::string payload;
  PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(batches.size()));
  for (const EventBatch& batch : batches) {
    PutScalarLe<uint64_t>(&payload, batch.sequence);
    PutScalarLe<uint32_t>(&payload,
                          static_cast<uint32_t>(batch.events.size()));
    for (const GraphEvent& event : batch.events) {
      PutScalarLe<uint8_t>(&payload, static_cast<uint8_t>(event.kind));
      PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(event.u));
      PutScalarLe<uint32_t>(&payload, static_cast<uint32_t>(event.v));
      PutDoubleLe(&payload, event.value);
    }
  }
  return Seal("ANEL", kFormatVersion, payload);
}

StatusOr<std::vector<EventBatch>> ParseEventLog(std::string_view bytes,
                                                const std::string& origin) {
  ANECI_ASSIGN_OR_RETURN(const Envelope envelope,
                         Open(bytes, "ANEL", kFormatVersion, kFormatVersion,
                              "event log", origin));
  ByteReader reader(envelope.payload, "event log payload", origin);
  uint32_t num_batches = 0;
  ANECI_RETURN_IF_ERROR(reader.Get(&num_batches));
  std::vector<EventBatch> batches;
  batches.reserve(std::min<size_t>(num_batches, reader.remaining()));
  for (uint32_t b = 0; b < num_batches; ++b) {
    EventBatch batch;
    uint32_t num_events = 0;
    ANECI_RETURN_IF_ERROR(reader.Get(&batch.sequence));
    ANECI_RETURN_IF_ERROR(reader.Get(&num_events));
    if (static_cast<uint64_t>(num_events) * kEventBytes > reader.remaining())
      return Status::InvalidArgument(
          "event log truncated: batch " + std::to_string(batch.sequence) +
          " declares " + std::to_string(num_events) + " events but only " +
          std::to_string(reader.remaining()) + " payload bytes remain: " +
          origin);
    batch.events.reserve(num_events);
    for (uint32_t e = 0; e < num_events; ++e) {
      GraphEvent event;
      uint8_t kind = 0;
      uint32_t u = 0;
      uint32_t v = 0;
      ANECI_RETURN_IF_ERROR(reader.Get(&kind));
      ANECI_RETURN_IF_ERROR(reader.Get(&u));
      ANECI_RETURN_IF_ERROR(reader.Get(&v));
      ANECI_RETURN_IF_ERROR(reader.GetDouble(&event.value));
      if (kind > static_cast<uint8_t>(EventKind::kSetAttribute))
        return Status::InvalidArgument(
            "unknown event kind " + std::to_string(kind) + " in batch " +
            std::to_string(batch.sequence) + ": " + origin);
      event.kind = static_cast<EventKind>(kind);
      event.u = static_cast<int32_t>(u);
      event.v = static_cast<int32_t>(v);
      batch.events.push_back(event);
    }
    batches.push_back(std::move(batch));
  }
  if (!reader.exhausted())
    return Status::InvalidArgument(
        "event log has " + std::to_string(reader.remaining()) +
        " trailing payload bytes after " + std::to_string(num_batches) +
        " batches: " + origin);
  return batches;
}

Status SaveEventLog(const std::vector<EventBatch>& batches,
                    const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  return env->WriteFileAtomic(path, SerializeEventLog(batches));
}

StatusOr<std::vector<EventBatch>> LoadEventLog(const std::string& path,
                                               Env* env) {
  if (env == nullptr) env = Env::Default();
  ANECI_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  return ParseEventLog(bytes, path);
}

StatusOr<BatchApplyReport> ApplyEventBatch(Graph* graph,
                                           const EventBatch& batch) {
  // Validate and apply against a scratch copy, then commit wholesale: a bad
  // event midway through the batch must not leave earlier events applied.
  Graph scratch = *graph;
  const int n = scratch.num_nodes();
  BatchApplyReport report;
  for (size_t i = 0; i < batch.events.size(); ++i) {
    const GraphEvent& event = batch.events[i];
    if (event.u < 0 || event.u >= n)
      return Status::InvalidArgument(
          "node " + std::to_string(event.u) + " out of range [0, " +
          std::to_string(n) + ") in " + EventContext(batch, i));
    switch (event.kind) {
      case EventKind::kAddEdge:
      case EventKind::kRemoveEdge: {
        if (event.v < 0 || event.v >= n)
          return Status::InvalidArgument(
              "node " + std::to_string(event.v) + " out of range [0, " +
              std::to_string(n) + ") in " + EventContext(batch, i));
        if (event.u == event.v)
          return Status::InvalidArgument(
              "self-loop on node " + std::to_string(event.u) + " in " +
              EventContext(batch, i));
        if (event.kind == EventKind::kAddEdge) {
          if (scratch.AddEdge(event.u, event.v))
            ++report.edges_added;
          else
            ++report.redundant;
        } else {
          if (scratch.RemoveEdge(event.u, event.v))
            ++report.edges_removed;
          else
            ++report.redundant;
        }
        break;
      }
      case EventKind::kSetAttribute: {
        if (!scratch.has_attributes())
          return Status::InvalidArgument(
              "set-attribute on a graph without attributes in " +
              EventContext(batch, i));
        if (event.v < 0 || event.v >= scratch.attribute_dim())
          return Status::InvalidArgument(
              "attribute column " + std::to_string(event.v) +
              " out of range [0, " + std::to_string(scratch.attribute_dim()) +
              ") in " + EventContext(batch, i));
        scratch.mutable_attributes()(event.u, event.v) = event.value;
        ++report.attributes_updated;
        break;
      }
    }
  }
  *graph = std::move(scratch);
  return report;
}

std::vector<int> TouchedNodes(const EventBatch& batch) {
  std::vector<int> nodes;
  nodes.reserve(batch.events.size() * 2);
  for (const GraphEvent& event : batch.events) {
    nodes.push_back(event.u);
    if (event.kind != EventKind::kSetAttribute) nodes.push_back(event.v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace aneci::stream
