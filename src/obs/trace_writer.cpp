#include "obs/trace_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

namespace rfd::obs {
namespace {

/// Fixed number formatting shared by every record field: the %.10g shape
/// matches the BENCH json emitter and is deterministic for a given value,
/// which is what makes fixed-seed traces byte-identical. std::to_chars
/// with general/10 is specified to produce printf's %.10g output and is
/// several times cheaper than snprintf - formatting is the bulk of the
/// per-record trace cost the E12c bench gates.
void append_num(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::general, 10);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, std::int64_t value) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, r.ptr);
}

void field_num(std::string& out, const char* key, double value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_num(out, value);
}

void field_int(std::string& out, const char* key, std::int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_int(out, value);
}

void field_str(std::string& out, const char* key, const char* value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += json_escape(value != nullptr ? value : "?");
  out += '"';
}

// Raw-cursor helpers for the hot record types: each line is written
// straight into the drain buffer with memcpy'd literal chunks, avoiding
// per-chunk std::string bookkeeping. Every field is bounded (ints <= 20
// chars, %.10g doubles <= 17, string payloads are short static literals),
// so the worst line stays far below kLineMax.
constexpr std::size_t kLineMax = 320;
// Flush threshold for the drain buffer; lines never split across writes.
constexpr std::size_t kDrainFlush = std::size_t{1} << 16;

template <std::size_t N>
inline char* put(char* p, const char (&lit)[N]) {
  std::memcpy(p, lit, N - 1);
  return p + (N - 1);
}

inline char* put_num(char* p, double value) {
  if (!std::isfinite(value)) return put(p, "null");
  return std::to_chars(p, p + 32, value, std::chars_format::general, 10).ptr;
}

inline char* put_int(char* p, std::int64_t value) {
  return std::to_chars(p, p + 24, value).ptr;
}

// Sim-time formatter: fixed-point milliseconds with nanosecond resolution
// and trailing zeros trimmed ("2500", "11999.99557"). Integer formatting
// is ~4x cheaper than %.10g doubles - "t" appears in every record, so
// this is the single hottest field - and on the check/heartbeat grid it
// produces the same bytes %.10g would. Deterministic for a given value,
// which is all byte-identical traces need.
inline char* put_ms(char* p, double value) {
  if (!(value >= 0.0) || value >= 9.0e12) return put_num(p, value);
  const std::uint64_t scaled =
      static_cast<std::uint64_t>(value * 1e6 + 0.5);
  p = put_int(p, static_cast<std::int64_t>(scaled / 1000000));
  std::uint32_t frac = static_cast<std::uint32_t>(scaled % 1000000);
  if (frac != 0) {
    char digits[6];
    for (int i = 5; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    int n = 6;
    while (digits[n - 1] == '0') --n;
    *p++ = '.';
    std::memcpy(p, digits, static_cast<std::size_t>(n));
    p += n;
  }
  return p;
}

void append_ms(std::string& out, double value) {
  char buf[32];
  out.append(buf, put_ms(buf, value));
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --------------------------------------------------------------- JsonLine

void JsonLine::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

JsonLine& JsonLine::str(std::string_view key, std::string_view value) {
  comma();
  out_ += '"';
  out_ += json_escape(key);
  out_ += "\":\"";
  out_ += json_escape(value);
  out_ += '"';
  return *this;
}

JsonLine& JsonLine::num(std::string_view key, double value) {
  comma();
  out_ += '"';
  out_ += json_escape(key);
  out_ += "\":";
  append_num(out_, value);
  return *this;
}

JsonLine& JsonLine::integer(std::string_view key, std::int64_t value) {
  comma();
  out_ += '"';
  out_ += json_escape(key);
  out_ += "\":";
  append_int(out_, value);
  return *this;
}

JsonLine& JsonLine::boolean(std::string_view key, bool value) {
  comma();
  out_ += '"';
  out_ += json_escape(key);
  out_ += value ? "\":true" : "\":false";
  return *this;
}

JsonLine& JsonLine::raw(std::string_view key, std::string_view json_value) {
  comma();
  out_ += '"';
  out_ += json_escape(key);
  out_ += "\":";
  out_ += json_value;
  return *this;
}

std::string JsonLine::finish() {
  out_ += '}';
  return std::move(out_);
}

// ------------------------------------------------------------ TraceWriter

TraceWriter::TraceWriter(const Config& config) {
  if (config.trace_path.empty()) return;
  if (config.trace_path == "-") {
    // stdout keeps its buffering: the caller's own output shares it.
    file_ = stdout;
  } else {
    file_ = std::fopen(config.trace_path.c_str(), "w");
    owns_file_ = file_ != nullptr;
    if (file_ == nullptr) {
      std::fprintf(stderr, "warning: cannot open trace %s\n",
                   config.trace_path.c_str());
      return;
    }
    // The drain buffer is the only buffer: each drain is one write, and
    // its result is the write's.
    std::setvbuf(file_, nullptr, _IONBF, 0);
  }
  buf_.resize(kDrainFlush + kLineMax);
}

TraceWriter::~TraceWriter() { close(); }

// Memoized "t" formatting: the engine emits hot records in bursts that
// share one sim-time stamp, so the common case is a memcpy of the digits
// formatted for the previous record.
char* TraceWriter::put_t(char* p, double value) {
  if (memo_t_len_ != 0 && value == memo_t_val_) {
    std::memcpy(p, memo_t_, static_cast<std::size_t>(memo_t_len_));
    return p + memo_t_len_;
  }
  char* end = put_ms(p, value);
  memo_t_val_ = value;
  memo_t_len_ = static_cast<int>(end - p);
  std::memcpy(memo_t_, p, static_cast<std::size_t>(memo_t_len_));
  return end;
}

// Field order is fixed per type; the common prefix is always
// {"type":...,"t":...}. The hot record types (hb_send / hb_recv are
// ~97% of a cluster trace, plus the suspicion flips) are written with a
// raw cursor; the rare types keep the simpler string path and are copied
// in (bounded by construction: record string payloads are short static
// literals). This is what keeps E12c's trace cost per record inside its
// budget.
char* TraceWriter::format(const Record& r, char* p) {
  switch (r.type) {
    case RecordType::kHbSend:
      p = put(p, "{\"type\":\"hb_send\",\"t\":");
      p = put_t(p, r.t);
      p = put(p, ",\"node\":");
      p = put_int(p, r.a);
      p = put(p, ",\"peer\":");
      p = put_int(p, r.b);
      p = put(p, ",\"entries\":");
      p = put_int(p, r.c);
      break;
    case RecordType::kHbRecv:
      p = put(p, "{\"type\":\"hb_recv\",\"t\":");
      p = put_t(p, r.t);
      p = put(p, ",\"node\":");
      p = put_int(p, r.a);
      p = put(p, ",\"from\":");
      p = put_int(p, r.b);
      p = put(p, ",\"entries\":");
      p = put_int(p, r.c);
      // Integral by construction; integer formatting is cheaper and
      // produces the same bytes %.10g would.
      p = put(p, ",\"advanced\":");
      p = put_int(p, static_cast<std::int64_t>(r.x));
      break;
    case RecordType::kSuspect:
      p = put(p, "{\"type\":\"suspect\",\"t\":");
      p = put_t(p, r.t);
      p = put(p, ",\"observer\":");
      p = put_int(p, r.a);
      p = put(p, ",\"victim\":");
      p = put_int(p, r.b);
      p = put(p, ",\"down\":");
      p = put_int(p, r.c);
      break;
    case RecordType::kClear:
      p = put(p, "{\"type\":\"clear\",\"t\":");
      p = put_t(p, r.t);
      p = put(p, ",\"observer\":");
      p = put_int(p, r.a);
      p = put(p, ",\"victim\":");
      p = put_int(p, r.b);
      break;
    case RecordType::kLeader:
      p = put(p, "{\"type\":\"leader\",\"t\":");
      p = put_t(p, r.t);
      p = put(p, ",\"node\":");
      p = put_int(p, r.a);
      p = put(p, ",\"cluster\":");
      p = put_int(p, r.b);
      p = put(p, ",\"acting\":");
      p = put_int(p, r.c);
      break;
    default: {
      scratch_.clear();
      format_cold(r, scratch_);
      const std::size_t n = scratch_.size() < kLineMax ? scratch_.size()
                                                       : kLineMax;
      std::memcpy(p, scratch_.data(), n);
      return p + n;
    }
  }
  return put(p, "}\n");
}

void TraceWriter::format_cold(const Record& r, std::string& out) {
  switch (r.type) {
    case RecordType::kDrop:
      out += "{\"type\":\"drop\",\"t\":";
      append_ms(out, r.t);
      out += ",\"from\":";
      append_int(out, r.a);
      out += ",\"to\":";
      append_int(out, r.b);
      field_str(out, "why", r.s);
      break;
    case RecordType::kFault: {
      out += "{\"type\":\"fault\",\"t\":";
      append_ms(out, r.t);
      field_str(out, "kind", r.s);
      // Link faults carry two endpoints and a blocked-pair count; slow
      // faults carry a delay *factor*, not an extra delay. The kind name
      // is static (scenario.cpp), so dispatching on it is reliable.
      const bool link =
          r.s != nullptr && std::strncmp(r.s, "link", 4) == 0;
      const bool slow =
          r.s != nullptr && std::strncmp(r.s, "slow", 4) == 0;
      if (r.a >= 0) field_int(out, "node", r.a);
      if (link && r.b >= 0) field_int(out, "peer", r.b);
      if (r.c > 0) field_int(out, link ? "pairs" : "groups", r.c);
      if (r.x > 0.0) field_num(out, slow ? "factor" : "extra_ms", r.x);
      if (!slow && r.y > 0.0) field_num(out, "prob", r.y);
      break;
    }
    case RecordType::kSockErr:
      out += "{\"type\":\"sock_err\",\"t\":";
      append_ms(out, r.t);
      out += ",\"node\":";
      append_int(out, r.a);
      field_str(out, "op", r.s);
      field_int(out, "errno", r.c);
      break;
    default:
      // Hot types are handled by format(); never reaches here.
      return;
  }
  out += "}\n";
}

void TraceWriter::emit(const Record& r) {
  if (file_ == nullptr) return;
  char* const base = buf_.data();
  buf_len_ = static_cast<std::size_t>(format(r, base + buf_len_) - base);
  ++buf_records_;
  // Write in bounded chunks so the buffer stays cache-resident.
  if (buf_len_ >= kDrainFlush) drain();
}

void TraceWriter::write_line(const std::string& line) {
  if (file_ == nullptr) return;
  // Keeps kLineMax bytes of room behind the line for the next emit().
  const std::size_t need = buf_len_ + line.size() + 1 + kLineMax;
  if (need > buf_.size()) buf_.resize(need);
  std::memcpy(buf_.data() + buf_len_, line.data(), line.size());
  buf_len_ += line.size();
  buf_[buf_len_++] = '\n';
  ++buf_records_;
  if (buf_len_ >= kDrainFlush) drain();
}

void TraceWriter::drain() {
  if (buf_len_ == 0) return;
  // The flush surfaces a write error stdout's own buffer would defer.
  const bool ok = std::fwrite(buf_.data(), 1, buf_len_, file_) == buf_len_ &&
                  std::fflush(file_) == 0;
  (ok ? written_records_ : dropped_) += buf_records_;
  buf_len_ = 0;
  buf_records_ = 0;
}

void TraceWriter::close() {
  if (file_ == nullptr) return;
  drain();
  if (dropped_ > 0) {
    // The exact loss accounting: a lossy trace always says how lossy.
    write_line(
        JsonLine{}.str("type", "lost").integer("dropped", dropped_).finish());
    drain();
  }
  if (owns_file_) std::fclose(file_);
  file_ = nullptr;
}

}  // namespace rfd::obs
