#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace jbench {

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->clock != b->clock) return a->clock < b->clock;
                     return a->start_us < b->start_us;
                   });
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"host clock\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"simulated clock\"}}";
  char buf[256];
  for (const Span* s : order) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  static_cast<int>(s->clock), s->track, s->name, s->start_us,
                  s->dur_us, static_cast<unsigned long long>(s->id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace jbench
