// Message and identifier types for the asynchronous system model.
//
// The paper's system model (§1): n processes, complete communication graph,
// reliable FIFO channels, each message delivered exactly once. The simulator
// is in-process, so payloads are type-erased values rather than serialized
// bytes; protocols document which C++ type rides under each tag.
//
// Payloads are immutable once sent, so they are shared, never copied: a
// std::any handed to Context::send / broadcast_others is wrapped into one
// refcounted Payload where it enters the runtime (the simulator's context,
// the reliable shim's wrapper, the node runtime's local loop and frame
// decoder). Broadcast recipients, injected duplicates, retransmissions and
// the delivered Message all point at that one object. The Context
// interface itself keeps taking std::any: it is the boundary protocols and
// context decorators are written against.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace chc::sim {

using ProcessId = std::size_t;
using Time = double;

/// An immutable, shared protocol payload (see the header comment).
using Payload = std::shared_ptr<const std::any>;

/// The one allocation a payload costs where it enters the runtime.
inline Payload make_payload(std::any value) {
  return std::make_shared<const std::any>(std::move(value));
}

/// A protocol message. `tag` identifies the protocol-level message kind;
/// tag ranges are partitioned between protocol layers (see each layer's
/// header). `payload` points at an immutable value of the tag's documented
/// type, shared with every other copy of this message.
struct Message {
  ProcessId from = 0;
  ProcessId to = 0;
  int tag = 0;
  Payload payload;
};

}  // namespace chc::sim
