#include "trace/otf2.hpp"

#include <fstream>

#include "common/error.hpp"

namespace ecotune::trace {
namespace {
constexpr char kMagic[8] = {'E', 'C', 'O', 'T', 'R', 'C', '0', '1'};
}

std::uint32_t Otf2Archive::define_region(const std::string& name) {
  auto it = region_ids_.find(name);
  if (it != region_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(region_names_.size());
  region_names_.push_back(name);
  region_ids_.emplace(name, id);
  return id;
}

std::uint32_t Otf2Archive::define_metric(const std::string& name) {
  auto it = metric_ids_.find(name);
  if (it != metric_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(metric_names_.size());
  metric_names_.push_back(name);
  metric_ids_.emplace(name, id);
  return id;
}

void Otf2Archive::append(TraceRecord r) {
  ensure(r.timestamp >= last_timestamp_,
         "Otf2Archive: records must be chronological");
  last_timestamp_ = r.timestamp;
  records_.push_back(r);
}

void Otf2Archive::enter(Seconds t, std::uint32_t region) {
  ensure(region < region_names_.size(), "Otf2Archive::enter: unknown region");
  append({RecordType::kEnter, t.value(), region, 0.0});
}

void Otf2Archive::exit(Seconds t, std::uint32_t region) {
  ensure(region < region_names_.size(), "Otf2Archive::exit: unknown region");
  append({RecordType::kExit, t.value(), region, 0.0});
}

void Otf2Archive::metric(Seconds t, std::uint32_t metric, double value) {
  ensure(metric < metric_names_.size(), "Otf2Archive::metric: unknown metric");
  append({RecordType::kMetric, t.value(), metric, value});
}

const std::string& Otf2Archive::region_name(std::uint32_t id) const {
  ensure(id < region_names_.size(), "Otf2Archive::region_name: bad id");
  return region_names_[id];
}

const std::string& Otf2Archive::metric_name(std::uint32_t id) const {
  ensure(id < metric_names_.size(), "Otf2Archive::metric_name: bad id");
  return metric_names_[id];
}

std::uint32_t Otf2Archive::region_id(const std::string& name) const {
  auto it = region_ids_.find(name);
  ensure(it != region_ids_.end(),
         "Otf2Archive::region_id: unknown region '" + name + "'");
  return it->second;
}

namespace {

void write_u64(std::ofstream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  ensure(is.good(), "Otf2Archive::load: truncated file");
  return v;
}

void write_string(std::ofstream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& is) {
  const std::uint64_t n = read_u64(is);
  ensure(n < (1ULL << 20), "Otf2Archive::load: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  ensure(is.good(), "Otf2Archive::load: truncated string");
  return s;
}

}  // namespace

void Otf2Archive::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  ensure(os.good(), "Otf2Archive::save: cannot open '" + path + "'");
  os.write(kMagic, sizeof(kMagic));
  write_u64(os, region_names_.size());
  for (const auto& n : region_names_) write_string(os, n);
  write_u64(os, metric_names_.size());
  for (const auto& n : metric_names_) write_string(os, n);
  write_u64(os, records_.size());
  for (const auto& r : records_) {
    os.put(static_cast<char>(r.type));
    os.write(reinterpret_cast<const char*>(&r.timestamp),
             sizeof(r.timestamp));
    os.write(reinterpret_cast<const char*>(&r.id), sizeof(r.id));
    os.write(reinterpret_cast<const char*>(&r.value), sizeof(r.value));
  }
  ensure(os.good(), "Otf2Archive::save: write failed");
}

Otf2Archive Otf2Archive::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ensure(is.good(), "Otf2Archive::load: cannot open '" + path + "'");
  char magic[8];
  is.read(magic, sizeof(magic));
  ensure(is.good() && std::equal(magic, magic + 8, kMagic),
         "Otf2Archive::load: bad magic");
  Otf2Archive a;
  const std::uint64_t nregions = read_u64(is);
  for (std::uint64_t i = 0; i < nregions; ++i)
    a.define_region(read_string(is));
  const std::uint64_t nmetrics = read_u64(is);
  for (std::uint64_t i = 0; i < nmetrics; ++i)
    a.define_metric(read_string(is));
  const std::uint64_t nrecords = read_u64(is);
  a.records_.reserve(nrecords);
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    TraceRecord r;
    r.type = static_cast<RecordType>(is.get());
    is.read(reinterpret_cast<char*>(&r.timestamp), sizeof(r.timestamp));
    is.read(reinterpret_cast<char*>(&r.id), sizeof(r.id));
    is.read(reinterpret_cast<char*>(&r.value), sizeof(r.value));
    ensure(is.good(), "Otf2Archive::load: truncated record");
    a.records_.push_back(r);
  }
  if (!a.records_.empty()) a.last_timestamp_ = a.records_.back().timestamp;
  return a;
}

}  // namespace ecotune::trace
