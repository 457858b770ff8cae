// Events: the steps of a schedule (Section 2.3), as recorded in a trace.
//
// A step e = (p_i, m, d, A) is uniquely defined by the process, the message
// received (or the null message), and the failure detector value seen. The
// trace additionally records the causal parents - the previous step of the
// same process and, through the received message, the step that sent it -
// so the "causal chain of a decision event" used by Lemma 4.1 is a
// queryable DAG rather than a proof device.
#pragma once

#include "common/types.hpp"
#include "fd/fd_value.hpp"

namespace rfd::sim {

/// The decide()/deliver() calls of a step live in the trace-level
/// decisions()/deliveries() lists, keyed by event id; the messages it sent
/// are those whose send_event is its id.
struct Event {
  EventId id = kNoEvent;
  ProcessId process = -1;
  Tick time = 0;                      // T[k]
  MessageId received = kNoMessage;    // kNoMessage encodes the null message
  fd::FdValue fd_value;               // d seen by the process in this step
  EventId prev_same_process = kNoEvent;
  bool is_start = false;              // first step of the process
};

}  // namespace rfd::sim
