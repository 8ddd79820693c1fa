#include "rbc/slotcast.hpp"

#include <string>
#include <utility>

#include "common/check.hpp"

namespace chc::rbc {

namespace {

std::string value_of(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

Bytes bytes_of(const std::string& value) {
  return Bytes(value.begin(), value.end());
}

}  // namespace

SlotBroadcast::SlotBroadcast(std::size_t n, std::size_t f, sim::ProcessId self,
                             Deliver deliver, Options options)
    : n_(n),
      f_(f),
      self_(self),
      deliver_(std::move(deliver)),
      options_(options) {
  CHC_CHECK(options_.allow_below_bound || n >= 3 * f + 1,
            "reliable broadcast requires n >= 3f + 1");
  CHC_CHECK(n >= 1 && self < n, "process id out of range");
  CHC_CHECK(deliver_ != nullptr, "delivery callback required");
}

void SlotBroadcast::broadcast(sim::Context& ctx, std::uint32_t slot,
                              Bytes bytes) {
  CHC_CHECK(slot <= options_.max_slot, "slot index out of range");
  CHC_CHECK(bytes.size() <= options_.max_payload, "payload too large");
  CHC_CHECK(broadcast_slots_.insert(slot).second,
            "one broadcast per slot per process");
  ctx.broadcast_others(kTagSlotInit, SlotMsg{self_, slot, bytes});
  // Local INIT handling: echo own value immediately.
  const Key key{self_, slot};
  Slot& st = slots_[key];
  st.echoed = true;
  st.echoes[value_of(bytes)].insert(self_);
  ctx.broadcast_others(kTagSlotEcho, SlotMsg{self_, slot, std::move(bytes)});
  maybe_progress(ctx, key, st);
}

/// Records `supporter` behind `bytes`, honoring the distinct-value cap: a
/// Byzantine flooder can register at most n + 2 candidate values per slot
/// (more than any correct execution produces), bounding memory. Support for
/// an already-tracked value is always counted.
bool SlotBroadcast::count_support(Support& by_value, Value value,
                                  sim::ProcessId supporter) {
  const auto it = by_value.find(value);
  if (it != by_value.end()) {
    it->second.insert(supporter);
    return true;
  }
  if (by_value.size() >= n_ + 2) return false;
  by_value[std::move(value)].insert(supporter);
  return true;
}

void SlotBroadcast::on_message(sim::Context& ctx, const sim::Message& msg) {
  // Everything here is adversarial input: validate, drop, never throw.
  const SlotMsg* sm = std::any_cast<SlotMsg>(msg.payload.get());
  if (sm == nullptr || sm->origin >= n_ || sm->slot > options_.max_slot ||
      sm->bytes.size() > options_.max_payload) {
    ++rejected_;
    return;
  }
  const Key key{sm->origin, sm->slot};

  switch (msg.tag) {
    case kTagSlotInit: {
      // Only the origin itself may INIT its slot.
      if (msg.from != sm->origin) {
        ++rejected_;
        return;
      }
      Slot& st = slots_[key];
      if (st.echoed) return;  // echo the FIRST init only
      st.echoed = true;
      st.echoes[value_of(sm->bytes)].insert(self_);
      ctx.broadcast_others(kTagSlotEcho,
                           SlotMsg{sm->origin, sm->slot, sm->bytes});
      maybe_progress(ctx, key, st);
      break;
    }
    case kTagSlotEcho: {
      Slot& st = slots_[key];
      if (!count_support(st.echoes, value_of(sm->bytes), msg.from)) {
        ++rejected_;
        return;
      }
      maybe_progress(ctx, key, st);
      break;
    }
    case kTagSlotReady: {
      Slot& st = slots_[key];
      if (!count_support(st.readies, value_of(sm->bytes), msg.from)) {
        ++rejected_;
        return;
      }
      maybe_progress(ctx, key, st);
      break;
    }
    default:
      ++rejected_;
      break;
  }
}

void SlotBroadcast::maybe_progress(sim::Context& ctx, const Key& key,
                                   Slot& slot) {
  // READY once the echo quorum (n-f) or ready amplification (f+1) is met.
  if (!slot.readied) {
    for (const auto& [value, supporters] : slot.echoes) {
      if (supporters.size() >= n_ - f_) {
        slot.readied = true;
        slot.readies[value].insert(self_);
        ctx.broadcast_others(kTagSlotReady,
                             SlotMsg{key.first, key.second, bytes_of(value)});
        break;
      }
    }
  }
  if (!slot.readied) {
    for (const auto& [value, supporters] : slot.readies) {
      if (supporters.size() >= f_ + 1) {
        slot.readied = true;
        slot.readies[value].insert(self_);
        ctx.broadcast_others(kTagSlotReady,
                             SlotMsg{key.first, key.second, bytes_of(value)});
        break;
      }
    }
  }
  // Deliver on 2f+1 READYs for a single value.
  if (!slot.delivered) {
    for (const auto& [value, supporters] : slot.readies) {
      if (supporters.size() >= 2 * f_ + 1) {
        slot.delivered = true;
        deliver_(ctx, key.first, key.second, bytes_of(value));
        break;
      }
    }
  }
}

}  // namespace chc::rbc
