#include "src/common/trace_json.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

namespace zeppelin {
namespace {

// Minimal JSON string escaping: the labels we generate only need quotes,
// backslashes, and control characters handled.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void ChromeTraceWriter::Add(TraceEvent event) { events_.push_back(std::move(event)); }

void ChromeTraceWriter::NameThread(int pid, int tid, const std::string& name) {
  thread_names_.push_back({pid, tid, name});
}

std::string ChromeTraceWriter::ToJson() const {
  std::ostringstream out;
  // Timestamps are µs, and the daemon stamps them from a steady clock that
  // counts from boot: the default 6 significant digits would print a day-old
  // clock as 8.64e+10 and fold every request onto one instant. Fixed-point
  // keeps sub-µs resolution at any magnitude.
  out << std::fixed << std::setprecision(3);
  out << "[\n";
  bool first = true;
  for (const auto& tn : thread_names_) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << R"({"name":"thread_name","ph":"M","pid":)" << tn.pid << R"(,"tid":)" << tn.tid
        << R"(,"args":{"name":")" << Escape(tn.name) << R"("}})";
  }
  for (const auto& e : events_) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << R"({"name":")" << Escape(e.name) << R"(","cat":")" << Escape(e.category)
        << R"(","ph":"X","ts":)" << e.start_us << R"(,"dur":)" << e.duration_us << R"(,"pid":)"
        << e.pid << R"(,"tid":)" << e.tid << "}";
  }
  out << "\n]\n";
  return out.str();
}

bool ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace zeppelin
