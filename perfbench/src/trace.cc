#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::size_t Tracer::Begin(const char* name, std::size_t parent,
                          std::uint64_t request) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request});
  return spans_.size() - 1;
}

void Tracer::End(std::size_t id) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = now;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : kids) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, s.end);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end));
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.request), s.start * 1e6,
                 (s.end - s.start) * 1e6, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
