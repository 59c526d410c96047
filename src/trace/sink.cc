#include "trace/sink.h"

#include <sstream>

namespace ordlog {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kFixpointRound: return "fixpoint_round";
    case TraceEventKind::kFixpointDone: return "fixpoint_done";
    case TraceEventKind::kRuleFired: return "rule_fired";
    case TraceEventKind::kRuleStatus: return "rule_status";
    case TraceEventKind::kSolverBranch: return "solver_branch";
    case TraceEventKind::kSolverLeaf: return "solver_leaf";
    case TraceEventKind::kSolverPrune: return "solver_prune";
    case TraceEventKind::kSolverBacktrack: return "solver_backtrack";
    case TraceEventKind::kGroundComponent: return "ground_component";
    case TraceEventKind::kGroundDone: return "ground_done";
    case TraceEventKind::kDeltaGround: return "delta_ground";
  }
  return "unknown";
}

const char* RuleStatusCodeName(RuleStatusCode code) {
  switch (code) {
    case RuleStatusCode::kApplicable: return "applicable";
    case RuleStatusCode::kApplied: return "applied";
    case RuleStatusCode::kBlocked: return "blocked";
    case RuleStatusCode::kOverruled: return "overruled";
    case RuleStatusCode::kDefeated: return "defeated";
    case RuleStatusCode::kNotApplicable: return "not_applicable";
  }
  return "unknown";
}

RingBufferSink::RingBufferSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.reserve(capacity_);
}

void RingBufferSink::Emit(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % buffer_.size();
}

std::vector<TraceEvent> RingBufferSink::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> events;
  events.reserve(buffer_.size());
  // Oldest first: the ring starts at next_ once it has wrapped.
  for (size_t i = 0; i < buffer_.size(); ++i) {
    events.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return events;
}

uint64_t RingBufferSink::total_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

size_t RingBufferSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

void RingBufferSink::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffer_.clear();
  next_ = 0;
  total_ = 0;
}

std::string TraceEventToJson(const TraceEvent& event) {
  std::ostringstream os;
  os << "{\"event\":\"" << TraceEventKindName(event.kind) << '"';
  switch (event.kind) {
    case TraceEventKind::kFixpointRound:
      os << ",\"round\":" << event.a << ",\"size\":" << event.b
         << ",\"delta\":" << event.c;
      break;
    case TraceEventKind::kFixpointDone:
      os << ",\"steps\":" << event.a << ",\"size\":" << event.b
         << ",\"duration_us\":" << event.duration_us;
      break;
    case TraceEventKind::kRuleFired:
      os << ",\"rule\":" << event.rule << ",\"derived\":" << event.a;
      break;
    case TraceEventKind::kRuleStatus:
      os << ",\"rule\":" << event.rule << ",\"status\":\""
         << RuleStatusCodeName(static_cast<RuleStatusCode>(event.a)) << '"'
         << ",\"component\":" << event.component;
      if (static_cast<RuleStatusCode>(event.a) ==
              RuleStatusCode::kOverruled ||
          static_cast<RuleStatusCode>(event.a) == RuleStatusCode::kDefeated) {
        os << ",\"by_rule\":" << event.other_rule
           << ",\"by_component\":" << event.other_component;
      }
      break;
    case TraceEventKind::kSolverBranch:
      os << ",\"node\":" << event.node << ",\"atom\":" << event.a
         << ",\"value\":" << event.b << ",\"depth\":" << event.c;
      break;
    case TraceEventKind::kSolverLeaf:
      os << ",\"node\":" << event.node
         << ",\"accepted\":" << (event.a != 0 ? "true" : "false");
      break;
    case TraceEventKind::kSolverPrune:
    case TraceEventKind::kSolverBacktrack:
      os << ",\"node\":" << event.node << ",\"depth\":" << event.c;
      break;
    case TraceEventKind::kGroundComponent:
      os << ",\"component\":" << event.component << ",\"rules\":" << event.a
         << ",\"matched\":" << event.b << ",\"probes\":" << event.c
         << ",\"duration_us\":" << event.duration_us;
      break;
    case TraceEventKind::kGroundDone:
      os << ",\"rules\":" << event.a << ",\"atoms\":" << event.b
         << ",\"matched\":" << event.c
         << ",\"duration_us\":" << event.duration_us;
      break;
    case TraceEventKind::kDeltaGround:
      os << ",\"component\":" << event.component << ",\"rules\":" << event.a
         << ",\"atoms\":" << event.b << ",\"new_terms\":" << event.c
         << ",\"duration_us\":" << event.duration_us;
      break;
  }
  os << '}';
  return os.str();
}

void JsonLinesSink::Emit(const TraceEvent& event) {
  const std::string line = TraceEventToJson(event);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  ++lines_;
}

uint64_t JsonLinesSink::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace ordlog
