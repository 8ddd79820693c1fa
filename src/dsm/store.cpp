#include "dsm/store.hpp"

#include "common/check.hpp"

namespace chc::dsm {

std::size_t view_count(const View& v) {
  std::size_t c = 0;
  for (const auto& s : v) {
    if (s.has_value()) ++c;
  }
  return c;
}

bool view_equal(const View& a, const View& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_value() != b[i].has_value()) return false;
  }
  return true;
}

GrowOnlyStore::GrowOnlyStore(std::size_t n, std::size_t f, sim::ProcessId self)
    : n_(n), f_(f), self_(self), slots_(n) {
  CHC_CHECK(n >= 2 * f + 1, "quorum intersection requires n >= 2f + 1");
  CHC_CHECK(self < n, "process id out of range");
}

void GrowOnlyStore::merge_into_replica(const View& v) {
  CHC_INTERNAL(v.size() == n_, "view size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    if (v[i].has_value() && !slots_[i].has_value()) slots_[i] = v[i];
  }
}

void GrowOnlyStore::write(sim::Context& ctx, const geo::Vec& value,
                          WriteDone done) {
  CHC_CHECK(write_op_ == 0, "one write per process (write-once slot)");
  CHC_CHECK(!slots_[self_].has_value(), "own slot already written");
  write_op_ = next_op_++;
  write_done_ = std::move(done);
  slots_[self_] = value;  // local replica counts as the first ack
  write_acks_ = 1;
  ctx.broadcast_others(kTagWrite, WriteMsg{self_, value});
  if (write_acks_ >= quorum() && write_done_) {
    // n == 1 degenerate case.
    auto cb = std::move(write_done_);
    write_done_ = nullptr;
    cb(ctx);
  }
}

void GrowOnlyStore::collect(sim::Context& ctx, CollectDone done) {
  CHC_CHECK(collect_phase_ == CollectPhase::kIdle,
            "collects must not overlap");
  collect_phase_ = CollectPhase::kGather;
  collect_op_ = next_op_++;
  collect_done_ = std::move(done);
  collect_union_ = slots_;  // own replica is the first reply
  collect_replies_ = 1;
  ctx.broadcast_others(kTagGather, GatherMsg{collect_op_});
  if (collect_replies_ >= quorum()) {
    // n == 1 degenerate case: skip straight to completion (store quorum is
    // the local replica alone).
    collect_phase_ = CollectPhase::kIdle;
    auto cb = std::move(collect_done_);
    collect_done_ = nullptr;
    // Move out before invoking: the callback may start the next collect,
    // which reuses collect_union_.
    const View result = std::move(collect_union_);
    cb(ctx, result);
  }
}

void GrowOnlyStore::on_message(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.tag) {
    case kTagWrite: {  // server: merge one slot
      const auto& w = std::any_cast<const WriteMsg&>(*msg.payload);
      if (!slots_[w.origin].has_value()) slots_[w.origin] = w.value;
      ctx.send(msg.from, kTagWriteAck, AckMsg{0});
      break;
    }
    case kTagWriteAck: {  // client: count write quorum
      if (write_done_ == nullptr) break;
      if (++write_acks_ >= quorum()) {
        auto cb = std::move(write_done_);
        write_done_ = nullptr;
        cb(ctx);
      }
      break;
    }
    case kTagGather: {  // server: report replica
      const auto& g = std::any_cast<const GatherMsg&>(*msg.payload);
      ctx.send(msg.from, kTagGatherReply, ViewMsg{g.op, slots_});
      break;
    }
    case kTagGatherReply: {  // client: union replies, then write back
      if (collect_phase_ != CollectPhase::kGather) break;
      const auto& r = std::any_cast<const ViewMsg&>(*msg.payload);
      if (r.op != collect_op_) break;
      for (std::size_t i = 0; i < n_; ++i) {
        if (r.view[i].has_value() && !collect_union_[i].has_value()) {
          collect_union_[i] = r.view[i];
        }
      }
      if (++collect_replies_ >= quorum()) {
        collect_phase_ = CollectPhase::kStore;
        merge_into_replica(collect_union_);  // local store is the first ack
        collect_replies_ = 1;
        ctx.broadcast_others(kTagStore, ViewMsg{collect_op_, collect_union_});
        // quorum()==1 cannot happen here (n >= 2f+1 and n > 1).
      }
      break;
    }
    case kTagStore: {  // server: merge a whole view
      const auto& s = std::any_cast<const ViewMsg&>(*msg.payload);
      merge_into_replica(s.view);
      ctx.send(msg.from, kTagStoreAck, AckMsg{s.op});
      break;
    }
    case kTagStoreAck: {  // client: count write-back quorum
      if (collect_phase_ != CollectPhase::kStore) break;
      const auto& a = std::any_cast<const AckMsg&>(*msg.payload);
      if (a.op != collect_op_) break;
      if (++collect_replies_ >= quorum()) {
        collect_phase_ = CollectPhase::kIdle;
        auto cb = std::move(collect_done_);
        collect_done_ = nullptr;
        const View result = std::move(collect_union_);
        cb(ctx, result);
      }
      break;
    }
    default:
      CHC_CHECK(false, "message tag not owned by GrowOnlyStore");
  }
}

}  // namespace chc::dsm
