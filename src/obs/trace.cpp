#include "obs/trace.hpp"

#include <array>

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
  out += ",\"rmin\":";
  json_append_double(out, o.rmin);
  out += ",\"rmax\":";
  json_append_double(out, o.rmax);
  out.push_back('}');
}

bool parse_override(const JsonValue& j, HeaderChannelOverride& o) {
  if (!j.is_object()) return false;
  if (const JsonValue* v = j.find("from")) o.from = v->as_u64();
  if (const JsonValue* v = j.find("to")) o.to = v->as_u64();
  if (const JsonValue* v = j.find("drop")) o.drop = v->as_double();
  if (const JsonValue* v = j.find("dup")) o.dup = v->as_double();
  if (const JsonValue* v = j.find("reorder")) o.reorder = v->as_double();
  if (const JsonValue* v = j.find("rmin")) o.rmin = v->as_double();
  if (const JsonValue* v = j.find("rmax")) o.rmax = v->as_double();
  return true;
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
  const JsonValue* seq = j.find("seq");
  if (seq == nullptr) return field_missing("seq", error);
  out.seq = seq->as_u64();
  const JsonValue* t = j.find("t");
  if (t == nullptr) return field_missing("t", error);
  out.t = t->as_double();
  const JsonValue* p = j.find("p");
  if (p == nullptr) return field_missing("p", error);
  out.p = static_cast<Pid>(p->as_u64());

  if (const JsonValue* peer = j.find("peer")) {
    out.peer = static_cast<Pid>(peer->as_u64());
  }
  if (const JsonValue* tag = j.find("tag")) {
    out.tag = static_cast<int>(tag->as_i64());
  }
  if (const JsonValue* round = j.find("round")) {
    out.round = static_cast<std::size_t>(round->as_u64());
  }
  if (const JsonValue* aux = j.find("aux")) {
    out.aux = aux->as_u64();
  }
  if (const JsonValue* senders = j.find("senders")) {
    if (!senders->is_array()) {
      if (error != nullptr) *error = "'senders' is not an array";
      return false;
    }
    for (const JsonValue& s : senders->items) {
      out.senders.push_back(static_cast<Pid>(s.as_u64()));
    }
  }
  if (const JsonValue* view = j.find("view")) {
    if (!view->is_array()) {
      if (error != nullptr) *error = "'view' is not an array";
      return false;
    }
    for (const JsonValue& tuple : view->items) {
      if (!tuple.is_array() || tuple.items.size() != 2) {
        if (error != nullptr) *error = "view tuple is not [origin, point]";
        return false;
      }
      geo::Vec x;
      if (!parse_vec(tuple.items[1], x, error)) return false;
      out.view.emplace_back(static_cast<Pid>(tuple.items[0].as_u64()),
                            std::move(x));
    }
  }
  if (const JsonValue* verts = j.find("verts")) {
    if (!verts->is_array()) {
      if (error != nullptr) *error = "'verts' is not an array";
      return false;
    }
    for (const JsonValue& v : verts->items) {
      geo::Vec x;
      if (!parse_vec(v, x, error)) return false;
      out.verts.push_back(std::move(x));
    }
  }
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
  u64("max_polytope_vertices", h.max_polytope_vertices);
  bol("correct_inputs_model", h.correct_inputs_model);
  u64("t_end", h.t_end);
  u64("pattern", static_cast<std::uint64_t>(h.pattern));
  u64("crash_style", static_cast<std::uint64_t>(h.crash_style));
  u64("delay", static_cast<std::uint64_t>(h.delay));
  u64("seed", h.seed);
  dbl("drop", h.drop);
  dbl("dup", h.dup);
  dbl("reorder", h.reorder);
  dbl("reorder_delay_min", h.reorder_delay_min);
  dbl("reorder_delay_max", h.reorder_delay_max);
  bol("reliable", h.reliable);
  dbl("rto", h.rto);
  dbl("backoff", h.backoff);
  dbl("rto_max", h.rto_max);
  dbl("jitter", h.jitter);
  dbl("tick", h.tick);
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
      out += ",\"rmin\":";
      json_append_double(out, ph.rmin);
      out += ",\"rmax\":";
      json_append_double(out, ph.rmax);
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
  const auto u64 = [&j](const char* name, std::uint64_t& dst) {
    if (const JsonValue* v = j.find(name)) dst = v->as_u64();
  };
  const auto dbl = [&j](const char* name, double& dst) {
    if (const JsonValue* v = j.find(name)) dst = v->as_double();
  };
  const auto bol = [&j](const char* name, bool& dst) {
    if (const JsonValue* v = j.find(name)) dst = v->as_bool();
  };
  const auto i32 = [&j](const char* name, int& dst) {
    if (const JsonValue* v = j.find(name)) dst = static_cast<int>(v->as_i64());
  };
  i32("version", out.version);
  if (const JsonValue* env = j.find("env")) out.env = env->as_string();
  if (const JsonValue* pr = j.find("protocol")) out.protocol = pr->as_string();
  if (const JsonValue* p = j.find("perspective")) out.perspective = p->as_i64();
  u64("n", out.n);
  u64("f", out.f);
  u64("d", out.d);
  dbl("eps", out.eps);
  dbl("input_magnitude", out.input_magnitude);
  dbl("rel_tol", out.rel_tol);
  bol("round0_naive", out.round0_naive);
  u64("max_polytope_vertices", out.max_polytope_vertices);
  bol("correct_inputs_model", out.correct_inputs_model);
  u64("t_end", out.t_end);
  i32("pattern", out.pattern);
  i32("crash_style", out.crash_style);
  i32("delay", out.delay);
  u64("seed", out.seed);
  dbl("drop", out.drop);
  dbl("dup", out.dup);
  dbl("reorder", out.reorder);
  dbl("reorder_delay_min", out.reorder_delay_min);
  dbl("reorder_delay_max", out.reorder_delay_max);
  bol("reliable", out.reliable);
  dbl("rto", out.rto);
  dbl("backoff", out.backoff);
  dbl("rto_max", out.rto_max);
  dbl("jitter", out.jitter);
  dbl("tick", out.tick);
  u64("max_retries", out.max_retries);
  u64("max_events", out.max_events);
  dbl("clock_rate", out.clock_rate);
  if (out.n == 0) {
    if (error != nullptr) *error = "header is missing n";
    return false;
  }
  if (const JsonValue* overrides = j.find("overrides")) {
    for (const JsonValue& o : overrides->items) {
      HeaderChannelOverride co;
      if (!parse_override(o, co)) {
        if (error != nullptr) *error = "bad channel override";
        return false;
      }
      out.overrides.push_back(co);
    }
  }
  if (const JsonValue* phases = j.find("phases")) {
    for (const JsonValue& p : phases->items) {
      HeaderPolicyPhase ph;
      if (!p.is_object()) {
        if (error != nullptr) *error = "bad policy phase";
        return false;
      }
      if (const JsonValue* v = p.find("at")) ph.at = v->as_double();
      if (const JsonValue* v = p.find("drop")) ph.drop = v->as_double();
      if (const JsonValue* v = p.find("dup")) ph.dup = v->as_double();
      if (const JsonValue* v = p.find("reorder")) ph.reorder = v->as_double();
      if (const JsonValue* v = p.find("rmin")) ph.rmin = v->as_double();
      if (const JsonValue* v = p.find("rmax")) ph.rmax = v->as_double();
      if (const JsonValue* po = p.find("overrides")) {
        for (const JsonValue& o : po->items) {
          HeaderChannelOverride co;
          if (!parse_override(o, co)) {
            if (error != nullptr) *error = "bad phase override";
            return false;
          }
          ph.overrides.push_back(co);
        }
      }
      out.phases.push_back(std::move(ph));
    }
  }
  if (const JsonValue* plans = j.find("crash_plans")) {
    for (const JsonValue& p : plans->items) {
      HeaderCrashPlan cp;
      if (!p.is_object()) {
        if (error != nullptr) *error = "bad crash plan";
        return false;
      }
      if (const JsonValue* v = p.find("p")) cp.p = v->as_u64();
      if (const JsonValue* v = p.find("at")) {
        cp.has_at = true;
        cp.at = v->as_double();
      }
      if (const JsonValue* v = p.find("after")) {
        cp.has_after = true;
        cp.after = v->as_u64();
      }
      if (const JsonValue* v = p.find("recover")) {
        cp.has_recover = true;
        cp.recover = v->as_double();
      }
      out.crash_plans.push_back(cp);
    }
  }
  if (const JsonValue* storms = j.find("storms")) {
    for (const JsonValue& s : storms->items) {
      HeaderStorm st;
      if (!s.is_object()) {
        if (error != nullptr) *error = "bad storm window";
        return false;
      }
      if (const JsonValue* v = s.find("t0")) st.t0 = v->as_double();
      if (const JsonValue* v = s.find("t1")) st.t1 = v->as_double();
      if (const JsonValue* v = s.find("factor")) st.factor = v->as_double();
      out.storms.push_back(st);
    }
  }
  if (const JsonValue* byz = j.find("byz")) {
    for (const JsonValue& b : byz->items) {
      HeaderByz hb;
      if (!b.is_object()) {
        if (error != nullptr) *error = "bad byz entry";
        return false;
      }
      if (const JsonValue* v = b.find("p")) hb.p = v->as_u64();
      if (const JsonValue* v = b.find("behavior")) {
        hb.kind = static_cast<int>(v->as_i64());
      }
      if (const JsonValue* v = b.find("param")) hb.param = v->as_u64();
      out.byz.push_back(hb);
    }
  }
  if (const JsonValue* faulty = j.find("faulty")) {
    for (const JsonValue& v : faulty->items) out.faulty.push_back(v.as_u64());
  }
  if (const JsonValue* inputs = j.find("inputs")) {
    for (const JsonValue& row : inputs->items) {
      std::vector<double> coords;
      for (const JsonValue& c : row.items) coords.push_back(c.as_double());
      out.inputs.push_back(std::move(coords));
    }
  }
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
  if (const JsonValue* q = j.find("quiescent")) out.quiescent = q->as_bool();
  if (const JsonValue* d = j.find("decided")) out.decided = d->as_u64();
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
