#include "obs/trace.hpp"

#include <array>
#include <charconv>
#include <type_traits>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace chc::obs {

namespace {

struct KindName {
  EventKind kind;
  std::string_view name;
};

constexpr std::array<KindName, 15> kKindNames{{
    {EventKind::kSend, "send"},
    {EventKind::kRecv, "recv"},
    {EventKind::kNetDrop, "net_drop"},
    {EventKind::kNetDup, "net_dup"},
    {EventKind::kDropCrashed, "drop_crashed"},
    {EventKind::kCrash, "crash"},
    {EventKind::kRetransmit, "retransmit"},
    {EventKind::kRoundStart, "round_start"},
    {EventKind::kRound0, "round0"},
    {EventKind::kRound0Empty, "round0_empty"},
    {EventKind::kRound, "round"},
    {EventKind::kDecide, "decide"},
    {EventKind::kRecover, "recover"},
    {EventKind::kGiveUp, "give_up"},
    {EventKind::kByzSend, "byz_send"},
}};

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_vec(std::string& out, const geo::Vec& v) {
  out.push_back('[');
  for (std::size_t i = 0; i < v.dim(); ++i) {
    if (i != 0) out.push_back(',');
    json_append_double(out, v[i]);
  }
  out.push_back(']');
}

bool parse_vec(const JsonValue& j, geo::Vec& out, std::string* error) {
  if (!j.is_array()) {
    if (error != nullptr) *error = "vertex is not an array";
    return false;
  }
  std::vector<double> coords;
  coords.reserve(j.items.size());
  for (const JsonValue& c : j.items) {
    if (c.type != JsonValue::Type::kNumber) {
      if (error != nullptr) *error = "vertex coordinate is not a number";
      return false;
    }
    coords.push_back(c.number);
  }
  out = geo::Vec(std::move(coords));
  return true;
}

bool field_missing(const char* name, std::string* error) {
  if (error != nullptr) *error = std::string("missing field '") + name + "'";
  return false;
}

/// Typed reads of one JSON object that never throw: a value of the wrong
/// JSON type (or an integer field holding anything but an in-range
/// integer) marks the reader bad instead, and the parsers turn that into
/// their "false + *error" result on malformed input.
class FieldReader {
 public:
  explicit FieldReader(const JsonValue& obj) : obj_(obj) {}

  /// Reads field `name` into `dst` when present (absent leaves it as is).
  template <typename T>
  void read(const char* name, T& dst) {
    if (const JsonValue* v = obj_.find(name)) read_value(*v, name, dst);
  }

  /// Reads `v`, a value of field `name`, into `dst`.
  template <typename T>
  void read_value(const JsonValue& v, const char* name, T& dst) {
    if constexpr (std::is_same_v<T, bool>) {
      if (expect(v, JsonValue::Type::kBool, name)) dst = v.boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (expect(v, JsonValue::Type::kString, name)) dst = v.text;
    } else if constexpr (std::is_floating_point_v<T>) {
      if (expect(v, JsonValue::Type::kNumber, name)) dst = v.number;
    } else if (expect(v, JsonValue::Type::kNumber, name)) {
      // Integers are read from the exact token: a negative, fractional or
      // out-of-range one is malformed, not converted.
      T x{};
      const char* end = v.text.data() + v.text.size();
      const auto [ptr, ec] = std::from_chars(v.text.data(), end, x);
      if (ec != std::errc() || ptr != end) {
        mark_bad(name);
      } else {
        dst = x;
      }
    }
  }

  /// The items of array field `name`; empty when absent, and empty (with
  /// the reader marked bad) when present but not an array.
  const std::vector<JsonValue>& array(const char* name) {
    static const std::vector<JsonValue> kNone;
    const JsonValue* v = obj_.find(name);
    if (v == nullptr || !expect(*v, JsonValue::Type::kArray, name)) {
      return kNone;
    }
    return v->items;
  }

  /// Marks the reader bad unless `v` has the given type.
  bool expect(const JsonValue& v, JsonValue::Type type, const char* name) {
    if (v.type == type) return true;
    mark_bad(name);
    return false;
  }
  void mark_bad(const char* name) {
    if (bad_ == nullptr) bad_ = name;
  }

  bool ok() const { return bad_ == nullptr; }

  /// False, with *error naming the first malformed field.
  bool fail(std::string* error) const {
    if (error != nullptr) {
      *error = std::string("field '") + bad_ + "' is malformed";
    }
    return false;
  }

 private:
  const JsonValue& obj_;
  const char* bad_ = nullptr;
};

void append_override(std::string& out, const HeaderChannelOverride& o) {
  out += "{\"from\":";
  out += std::to_string(o.from);
  out += ",\"to\":";
  out += std::to_string(o.to);
  out += ",\"drop\":";
  json_append_double(out, o.drop);
  out += ",\"dup\":";
  json_append_double(out, o.dup);
  out += ",\"reorder\":";
  json_append_double(out, o.reorder);
  out.push_back('}');
}

bool parse_override(const JsonValue& j, HeaderChannelOverride& o) {
  if (!j.is_object()) return false;
  FieldReader r(j);
  r.read("from", o.from);
  r.read("to", o.to);
  r.read("drop", o.drop);
  r.read("dup", o.dup);
  r.read("reorder", o.reorder);
  return r.ok();
}

}  // namespace

std::string_view kind_name(EventKind k) {
  for (const auto& [kind, name] : kKindNames) {
    if (kind == k) return name;
  }
  CHC_INTERNAL(false, "unknown event kind");
}

bool kind_from_name(std::string_view name, EventKind& out) {
  for (const auto& [kind, kname] : kKindNames) {
    if (kname == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::string to_jsonl(const TraceEvent& e) {
  std::string out;
  out.reserve(96);
  out += "{\"kind\":\"";
  out += kind_name(e.kind);
  out += "\",\"seq\":";
  append_u64(out, e.seq);
  out += ",\"t\":";
  json_append_double(out, e.t);
  out += ",\"p\":";
  append_u64(out, e.p);
  if (e.peer != kNoPeer) {
    out += ",\"peer\":";
    append_u64(out, e.peer);
  }
  if (e.tag >= 0) {
    out += ",\"tag\":";
    out += std::to_string(e.tag);
  }
  const bool has_round = e.kind == EventKind::kRoundStart ||
                         e.kind == EventKind::kRound ||
                         e.kind == EventKind::kDecide;
  if (has_round) {
    out += ",\"round\":";
    append_u64(out, e.round);
  }
  if (e.kind == EventKind::kNetDup || e.kind == EventKind::kRetransmit ||
      e.kind == EventKind::kByzSend) {
    out += ",\"aux\":";
    append_u64(out, e.aux);
  }
  if (!e.senders.empty()) {
    out += ",\"senders\":[";
    for (std::size_t i = 0; i < e.senders.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_u64(out, e.senders[i]);
    }
    out.push_back(']');
  }
  if (!e.view.empty()) {
    out += ",\"view\":[";
    for (std::size_t i = 0; i < e.view.size(); ++i) {
      if (i != 0) out.push_back(',');
      out.push_back('[');
      append_u64(out, e.view[i].first);
      out.push_back(',');
      append_vec(out, e.view[i].second);
      out.push_back(']');
    }
    out.push_back(']');
  }
  if (!e.verts.empty()) {
    out += ",\"verts\":[";
    for (std::size_t i = 0; i < e.verts.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_vec(out, e.verts[i]);
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

bool parse_event(std::string_view line, TraceEvent& out, std::string* error) {
  JsonValue j;
  if (!json_parse(line, j, error)) return false;
  if (!j.is_object()) {
    if (error != nullptr) *error = "event is not an object";
    return false;
  }
  out = TraceEvent{};

  const JsonValue* kind = j.find("kind");
  if (kind == nullptr || kind->type != JsonValue::Type::kString) {
    return field_missing("kind", error);
  }
  if (!kind_from_name(kind->text, out.kind)) {
    if (error != nullptr) *error = "unknown event kind '" + kind->text + "'";
    return false;
  }
  if (j.find("seq") == nullptr) return field_missing("seq", error);
  if (j.find("t") == nullptr) return field_missing("t", error);
  if (j.find("p") == nullptr) return field_missing("p", error);
  FieldReader r(j);
  r.read("seq", out.seq);
  r.read("t", out.t);
  r.read("p", out.p);
  r.read("peer", out.peer);
  r.read("tag", out.tag);
  r.read("round", out.round);
  r.read("aux", out.aux);
  for (const JsonValue& s : r.array("senders")) {
    r.read_value(s, "senders", out.senders.emplace_back());
  }
  for (const JsonValue& tuple : r.array("view")) {
    if (!tuple.is_array() || tuple.items.size() != 2) {
      if (error != nullptr) *error = "view tuple is not [origin, point]";
      return false;
    }
    auto& [origin, x] = out.view.emplace_back();
    r.read_value(tuple.items[0], "view", origin);
    if (!parse_vec(tuple.items[1], x, error)) return false;
  }
  for (const JsonValue& v : r.array("verts")) {
    geo::Vec x;
    if (!parse_vec(v, x, error)) return false;
    out.verts.push_back(std::move(x));
  }
  if (!r.ok()) return r.fail(error);
  return true;
}

std::string to_jsonl(const TraceHeader& h) {
  std::string out;
  out.reserve(256);
  out += "{\"kind\":\"header\",\"version\":";
  out += std::to_string(h.version);
  out += ",\"env\":";
  json_append_string(out, h.env);
  if (h.protocol != "cc") {
    out += ",\"protocol\":";
    json_append_string(out, h.protocol);
  }
  if (h.perspective >= 0) {
    out += ",\"perspective\":";
    out += std::to_string(h.perspective);
  }
  const auto u64 = [&out](const char* name, std::uint64_t v) {
    out += ",\"";
    out += name;
    out += "\":";
    append_u64(out, v);
  };
  const auto dbl = [&out](const char* name, double v) {
    out += ",\"";
    out += name;
    out += "\":";
    json_append_double(out, v);
  };
  const auto bol = [&out](const char* name, bool v) {
    out += ",\"";
    out += name;
    out += "\":";
    out += v ? "true" : "false";
  };
  u64("n", h.n);
  u64("f", h.f);
  u64("d", h.d);
  dbl("eps", h.eps);
  dbl("input_magnitude", h.input_magnitude);
  dbl("rel_tol", h.rel_tol);
  bol("round0_naive", h.round0_naive);
  bol("correct_inputs_model", h.correct_inputs_model);
  u64("t_end", h.t_end);
  u64("pattern", static_cast<std::uint64_t>(h.pattern));
  u64("crash_style", static_cast<std::uint64_t>(h.crash_style));
  u64("delay", static_cast<std::uint64_t>(h.delay));
  u64("seed", h.seed);
  dbl("drop", h.drop);
  dbl("dup", h.dup);
  dbl("reorder", h.reorder);
  bol("reliable", h.reliable);
  dbl("rto_max", h.rto_max);
  u64("max_retries", h.max_retries);
  u64("max_events", h.max_events);
  if (h.clock_rate != 1.0) dbl("clock_rate", h.clock_rate);
  if (!h.overrides.empty()) {
    out += ",\"overrides\":[";
    for (std::size_t i = 0; i < h.overrides.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_override(out, h.overrides[i]);
    }
    out.push_back(']');
  }
  if (!h.phases.empty()) {
    out += ",\"phases\":[";
    for (std::size_t i = 0; i < h.phases.size(); ++i) {
      if (i != 0) out.push_back(',');
      const HeaderPolicyPhase& ph = h.phases[i];
      out += "{\"at\":";
      json_append_double(out, ph.at);
      out += ",\"drop\":";
      json_append_double(out, ph.drop);
      out += ",\"dup\":";
      json_append_double(out, ph.dup);
      out += ",\"reorder\":";
      json_append_double(out, ph.reorder);
      if (!ph.overrides.empty()) {
        out += ",\"overrides\":[";
        for (std::size_t k = 0; k < ph.overrides.size(); ++k) {
          if (k != 0) out.push_back(',');
          append_override(out, ph.overrides[k]);
        }
        out.push_back(']');
      }
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (!h.crash_plans.empty()) {
    out += ",\"crash_plans\":[";
    for (std::size_t i = 0; i < h.crash_plans.size(); ++i) {
      if (i != 0) out.push_back(',');
      const HeaderCrashPlan& cp = h.crash_plans[i];
      out += "{\"p\":";
      append_u64(out, cp.p);
      if (cp.has_at) {
        out += ",\"at\":";
        json_append_double(out, cp.at);
      }
      if (cp.has_after) {
        out += ",\"after\":";
        append_u64(out, cp.after);
      }
      if (cp.has_recover) {
        out += ",\"recover\":";
        json_append_double(out, cp.recover);
      }
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (!h.storms.empty()) {
    out += ",\"storms\":[";
    for (std::size_t i = 0; i < h.storms.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += "{\"t0\":";
      json_append_double(out, h.storms[i].t0);
      out += ",\"t1\":";
      json_append_double(out, h.storms[i].t1);
      out += ",\"factor\":";
      json_append_double(out, h.storms[i].factor);
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (!h.byz.empty()) {
    out += ",\"byz\":[";
    for (std::size_t i = 0; i < h.byz.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += "{\"p\":";
      append_u64(out, h.byz[i].p);
      out += ",\"behavior\":";
      out += std::to_string(h.byz[i].kind);
      out += ",\"param\":";
      append_u64(out, h.byz[i].param);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out += ",\"faulty\":[";
  for (std::size_t i = 0; i < h.faulty.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, h.faulty[i]);
  }
  out += "],\"inputs\":[";
  for (std::size_t i = 0; i < h.inputs.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('[');
    for (std::size_t k = 0; k < h.inputs[i].size(); ++k) {
      if (k != 0) out.push_back(',');
      json_append_double(out, h.inputs[i][k]);
    }
    out.push_back(']');
  }
  out += "]}";
  return out;
}

bool parse_header(std::string_view line, TraceHeader& out,
                  std::string* error) {
  JsonValue j;
  if (!json_parse(line, j, error)) return false;
  const JsonValue* kind = j.find("kind");
  if (kind == nullptr || kind->type != JsonValue::Type::kString ||
      kind->text != "header") {
    if (error != nullptr) *error = "first record is not a trace header";
    return false;
  }
  out = TraceHeader{};
  FieldReader r(j);
  r.read("version", out.version);
  r.read("env", out.env);
  r.read("protocol", out.protocol);
  r.read("perspective", out.perspective);
  r.read("n", out.n);
  r.read("f", out.f);
  r.read("d", out.d);
  r.read("eps", out.eps);
  r.read("input_magnitude", out.input_magnitude);
  r.read("rel_tol", out.rel_tol);
  r.read("round0_naive", out.round0_naive);
  r.read("correct_inputs_model", out.correct_inputs_model);
  r.read("t_end", out.t_end);
  r.read("pattern", out.pattern);
  r.read("crash_style", out.crash_style);
  r.read("delay", out.delay);
  r.read("seed", out.seed);
  r.read("drop", out.drop);
  r.read("dup", out.dup);
  r.read("reorder", out.reorder);
  r.read("reliable", out.reliable);
  r.read("rto_max", out.rto_max);
  r.read("max_retries", out.max_retries);
  r.read("max_events", out.max_events);
  r.read("clock_rate", out.clock_rate);
  if (!r.ok()) return r.fail(error);
  if (out.n == 0) {
    if (error != nullptr) *error = "header is missing n";
    return false;
  }
  for (const JsonValue& o : r.array("overrides")) {
    HeaderChannelOverride co;
    if (!parse_override(o, co)) {
      if (error != nullptr) *error = "bad channel override";
      return false;
    }
    out.overrides.push_back(co);
  }
  for (const JsonValue& p : r.array("phases")) {
    HeaderPolicyPhase ph;
    if (!p.is_object()) {
      if (error != nullptr) *error = "bad policy phase";
      return false;
    }
    FieldReader pr(p);
    pr.read("at", ph.at);
    pr.read("drop", ph.drop);
    pr.read("dup", ph.dup);
    pr.read("reorder", ph.reorder);
    for (const JsonValue& o : pr.array("overrides")) {
      HeaderChannelOverride co;
      if (!parse_override(o, co)) {
        if (error != nullptr) *error = "bad phase override";
        return false;
      }
      ph.overrides.push_back(co);
    }
    if (!pr.ok()) return pr.fail(error);
    out.phases.push_back(std::move(ph));
  }
  for (const JsonValue& p : r.array("crash_plans")) {
    HeaderCrashPlan cp;
    if (!p.is_object()) {
      if (error != nullptr) *error = "bad crash plan";
      return false;
    }
    FieldReader pr(p);
    pr.read("p", cp.p);
    cp.has_at = p.find("at") != nullptr;
    pr.read("at", cp.at);
    cp.has_after = p.find("after") != nullptr;
    pr.read("after", cp.after);
    cp.has_recover = p.find("recover") != nullptr;
    pr.read("recover", cp.recover);
    if (!pr.ok()) return pr.fail(error);
    out.crash_plans.push_back(cp);
  }
  for (const JsonValue& s : r.array("storms")) {
    HeaderStorm st;
    if (!s.is_object()) {
      if (error != nullptr) *error = "bad storm window";
      return false;
    }
    FieldReader sr(s);
    sr.read("t0", st.t0);
    sr.read("t1", st.t1);
    sr.read("factor", st.factor);
    if (!sr.ok()) return sr.fail(error);
    out.storms.push_back(st);
  }
  for (const JsonValue& b : r.array("byz")) {
    HeaderByz hb;
    if (!b.is_object()) {
      if (error != nullptr) *error = "bad byz entry";
      return false;
    }
    FieldReader br(b);
    br.read("p", hb.p);
    br.read("behavior", hb.kind);
    br.read("param", hb.param);
    if (!br.ok()) return br.fail(error);
    out.byz.push_back(hb);
  }
  for (const JsonValue& v : r.array("faulty")) {
    r.read_value(v, "faulty", out.faulty.emplace_back());
  }
  for (const JsonValue& row : r.array("inputs")) {
    std::vector<double>& coords = out.inputs.emplace_back();
    if (!r.expect(row, JsonValue::Type::kArray, "inputs")) continue;
    for (const JsonValue& c : row.items) {
      r.read_value(c, "inputs", coords.emplace_back());
    }
  }
  if (!r.ok()) return r.fail(error);
  return true;
}

std::string to_jsonl(const TraceFooter& f) {
  std::string out = "{\"kind\":\"footer\",\"quiescent\":";
  out += f.quiescent ? "true" : "false";
  out += ",\"decided\":";
  append_u64(out, f.decided);
  out.push_back('}');
  return out;
}

bool parse_footer(std::string_view line, TraceFooter& out,
                  std::string* error) {
  JsonValue j;
  if (!json_parse(line, j, error)) return false;
  const JsonValue* kind = j.find("kind");
  if (kind == nullptr || kind->text != "footer") {
    if (error != nullptr) *error = "record is not a trace footer";
    return false;
  }
  out = TraceFooter{};
  FieldReader r(j);
  r.read("quiescent", out.quiescent);
  r.read("decided", out.decided);
  if (!r.ok()) return r.fail(error);
  return true;
}

void MemorySink::write(const TraceEvent& e) {
  std::string line = to_jsonl(e);
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(line));
  events_.push_back(e);
}

void MemorySink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(line);
}

std::vector<std::string> MemorySink::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

std::vector<TraceEvent> MemorySink::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

JsonlFileSink::JsonlFileSink(const std::string& path) : out_(path) {
  CHC_CHECK(out_.is_open(), "cannot open trace output file");
}

void JsonlFileSink::write(const TraceEvent& e) {
  const std::string line = to_jsonl(e);
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
}

void JsonlFileSink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
}

void JsonlFileSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
}

bool read_jsonl(const std::string& path, std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  lines.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return true;
}

}  // namespace chc::obs
