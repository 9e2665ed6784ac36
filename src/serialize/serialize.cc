#include "src/serialize/serialize.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "src/util/fnv1a.h"
#include "src/util/strings.h"

namespace pandia {
namespace {

constexpr const char* kMachineMagic = "pandia-machine-description v1";
constexpr const char* kWorkloadMagic = "pandia-workload-description v1";

// Minimal key=value document: first line is the magic, then one `key = value`
// per line; '#' starts a comment; blank lines are ignored. Duplicate keys are
// rejected — a hand-edited file where the same key appears twice almost
// certainly does not mean what its author intended.
//
// Parsing is one pass over the text with no copies: each entry is a pair of
// string_views into it, so the text must outlive the Document. The entries
// are then sorted by a hash of the key (ties by key, then by position),
// which puts duplicates side by side and lets a lookup binary-search on
// integers. Errors are those of a parse that stops at the first bad line: a
// duplicate key is reported only if it comes before the first malformed
// line, and quoted text stops at a NUL byte as "%s" does.
class Document {
 public:
  static StatusOr<Document> Parse(std::string_view text, const char* magic) {
    Document doc;
    doc.entries_.reserve(32);
    bool saw_magic = false;
    size_t start = 0;
    while (start <= text.size()) {
      size_t newline = text.find('\n', start);
      if (newline == std::string_view::npos) {
        newline = text.size();
      }
      std::string_view line = text.substr(start, newline - start);
      start = newline + 1;
      line = line.substr(0, line.find('#'));
      const size_t begin = line.find_first_not_of(" \t\r");
      if (begin == std::string_view::npos) {
        continue;
      }
      line = line.substr(begin, line.find_last_not_of(" \t\r") - begin + 1);
      if (!saw_magic) {
        if (line != magic) {
          return Status::InvalidArgument(StrFormat("expected magic '%s', got '%.*s'",
                                                   magic, Size(line), line.data()));
        }
        saw_magic = true;
        continue;
      }
      const size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        return doc.DuplicateOr(Status::InvalidArgument(
            StrFormat("malformed line '%.*s'", Size(line), line.data())));
      }
      std::string_view key = line.substr(0, eq);
      std::string_view value = line.substr(eq + 1);
      key = key.substr(0, key.find_last_not_of(" \t") + 1);
      value = value.substr(std::min(value.find_first_not_of(" \t"), value.size()));
      if (key.empty()) {
        return doc.DuplicateOr(Status::InvalidArgument(
            StrFormat("empty key in '%.*s'", Size(line), line.data())));
      }
      doc.entries_.push_back(Entry{Fnv1a64(key), key, value});
    }
    if (!saw_magic) {
      return Status::DataLoss(
          StrFormat("missing magic line '%s' (empty or truncated input?)", magic));
    }
    PANDIA_RETURN_IF_ERROR(doc.DuplicateOr(Status::Ok()));
    return doc;
  }

  StatusOr<std::string> GetString(const char* key) const {
    const std::string_view* value = Find(key);
    if (value == nullptr) {
      return Status::DataLoss(StrFormat("missing key '%s'", key));
    }
    return std::string(*value);
  }

  StatusOr<double> GetDouble(const char* key) const {
    const std::string_view* value = Find(key);
    if (value == nullptr) {
      return Status::DataLoss(StrFormat("missing key '%s'", key));
    }
    // strtod reads a NUL-terminated copy, so it stops at an embedded NUL
    // exactly as it would on the value's own c_str().
    const std::string copy(*value);
    const char* raw = copy.c_str();
    char* end = nullptr;
    const double parsed = std::strtod(raw, &end);
    if (end == raw || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("key '%s' has non-numeric value '%s'", key, raw));
    }
    return parsed;
  }

  StatusOr<int> GetInt(const char* key) const {
    StatusOr<double> value = GetDouble(key);
    if (!value.ok()) {
      return value.status();
    }
    const int i = static_cast<int>(*value);
    if (static_cast<double>(i) != *value) {
      return Status::InvalidArgument(StrFormat("key '%s' is not an integer", key));
    }
    return i;
  }

 private:
  struct Entry {
    uint64_t hash;
    std::string_view key;
    std::string_view value;
  };

  // Orders entries by (hash, key); a lookup compares no further.
  static bool KeyLess(const Entry& a, const Entry& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.key < b.key;
  }

  // A view's length as printf's "%.*s" precision.
  static int Size(std::string_view text) { return static_cast<int>(text.size()); }

  // Sorts the entries by (hash, key) and then by position in the text, and
  // returns a duplicate-key error for the earliest line that repeats a key,
  // or `otherwise` when no key repeats.
  Status DuplicateOr(Status otherwise) {
    std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
      if (a.hash != b.hash || a.key != b.key) {
        return KeyLess(a, b);
      }
      return a.key.data() < b.key.data();
    });
    const Entry* first = nullptr;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].key == entries_[i - 1].key &&
          (first == nullptr || entries_[i].key.data() < first->key.data())) {
        first = &entries_[i];
      }
    }
    if (first == nullptr) {
      return otherwise;
    }
    return Status::InvalidArgument(
        StrFormat("duplicate key '%.*s'", Size(first->key), first->key.data()));
  }

  const std::string_view* Find(std::string_view key) const {
    const Entry wanted{Fnv1a64(key), key, {}};
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), wanted, KeyLess);
    return it != entries_.end() && it->hash == wanted.hash && it->key == key
               ? &it->value
               : nullptr;
  }

  std::vector<Entry> entries_;
};

StatusOr<MemoryPolicy> PolicyFromName(const std::string& name) {
  for (MemoryPolicy policy :
       {MemoryPolicy::kLocal, MemoryPolicy::kInterleaveAll,
        MemoryPolicy::kInterleaveActive, MemoryPolicy::kHomeSocket}) {
    if (MemoryPolicyName(policy) == name) {
      return policy;
    }
  }
  return Status::InvalidArgument(StrFormat("unknown memory policy '%s'", name.c_str()));
}

}  // namespace

std::string MachineDescriptionToText(const MachineDescription& desc) {
  std::string out = StrFormat("%s\n", kMachineMagic);
  out += StrFormat("machine = %s\n", desc.topo.name.c_str());
  out += StrFormat("sockets = %d\n", desc.topo.num_sockets);
  out += StrFormat("cores_per_socket = %d\n", desc.topo.cores_per_socket);
  out += StrFormat("threads_per_core = %d\n", desc.topo.threads_per_core);
  out += StrFormat("l1_size = %.17g\n", desc.topo.l1_size);
  out += StrFormat("l2_size = %.17g\n", desc.topo.l2_size);
  out += StrFormat("l3_size = %.17g\n", desc.topo.l3_size);
  out += "# measured capacities (consistent units; §3)\n";
  out += StrFormat("core_ops = %.17g\n", desc.core_ops);
  out += StrFormat("smt_combined_ops = %.17g\n", desc.smt_combined_ops);
  out += StrFormat("l1_bw = %.17g\n", desc.l1_bw);
  out += StrFormat("l2_bw = %.17g\n", desc.l2_bw);
  out += StrFormat("l3_port_bw = %.17g\n", desc.l3_port_bw);
  out += StrFormat("l3_agg_bw = %.17g\n", desc.l3_agg_bw);
  out += StrFormat("dram_bw = %.17g\n", desc.dram_bw);
  out += StrFormat("link_bw = %.17g\n", desc.link_bw);
  return out;
}

StatusOr<MachineDescription> MachineDescriptionFromText(const std::string& text) {
  StatusOr<Document> doc = Document::Parse(text, kMachineMagic);
  if (!doc.ok()) {
    return doc.status();
  }
  MachineDescription desc;
  const StatusOr<std::string> name = doc->GetString("machine");
  const StatusOr<int> sockets = doc->GetInt("sockets");
  const StatusOr<int> cores = doc->GetInt("cores_per_socket");
  const StatusOr<int> smt = doc->GetInt("threads_per_core");
  const StatusOr<double> l1_size = doc->GetDouble("l1_size");
  const StatusOr<double> l2_size = doc->GetDouble("l2_size");
  const StatusOr<double> l3_size = doc->GetDouble("l3_size");
  const StatusOr<double> core_ops = doc->GetDouble("core_ops");
  const StatusOr<double> smt_ops = doc->GetDouble("smt_combined_ops");
  const StatusOr<double> l1_bw = doc->GetDouble("l1_bw");
  const StatusOr<double> l2_bw = doc->GetDouble("l2_bw");
  const StatusOr<double> l3_port = doc->GetDouble("l3_port_bw");
  const StatusOr<double> l3_agg = doc->GetDouble("l3_agg_bw");
  const StatusOr<double> dram = doc->GetDouble("dram_bw");
  const StatusOr<double> link = doc->GetDouble("link_bw");
  for (const Status* status :
       {&name.status(), &sockets.status(), &cores.status(), &smt.status(),
        &l1_size.status(), &l2_size.status(), &l3_size.status(), &core_ops.status(),
        &smt_ops.status(), &l1_bw.status(), &l2_bw.status(), &l3_port.status(),
        &l3_agg.status(), &dram.status(), &link.status()}) {
    if (!status->ok()) {
      return *status;
    }
  }
  desc.topo = MachineTopology{.name = *name,
                              .num_sockets = *sockets,
                              .cores_per_socket = *cores,
                              .threads_per_core = *smt,
                              .l1_size = *l1_size,
                              .l2_size = *l2_size,
                              .l3_size = *l3_size};
  desc.core_ops = *core_ops;
  desc.smt_combined_ops = *smt_ops;
  desc.l1_bw = *l1_bw;
  desc.l2_bw = *l2_bw;
  desc.l3_port_bw = *l3_port;
  desc.l3_agg_bw = *l3_agg;
  desc.dram_bw = *dram;
  desc.link_bw = *link;
  PANDIA_RETURN_IF_ERROR(desc.Validate());
  return desc;
}

std::string WorkloadDescriptionToText(const WorkloadDescription& desc) {
  std::string out = StrFormat("%s\n", kWorkloadMagic);
  out += StrFormat("workload = %s\n", desc.workload.c_str());
  out += StrFormat("machine = %s\n", desc.machine.c_str());
  out += "# step 1: single-thread time and demand vector d (§4.1)\n";
  out += StrFormat("t1 = %.17g\n", desc.t1);
  out += StrFormat("instr_rate = %.17g\n", desc.demands.instr_rate);
  out += StrFormat("l1_bw = %.17g\n", desc.demands.l1_bw);
  out += StrFormat("l2_bw = %.17g\n", desc.demands.l2_bw);
  out += StrFormat("l3_bw = %.17g\n", desc.demands.l3_bw);
  out += StrFormat("dram_local_bw = %.17g\n", desc.demands.dram_local_bw);
  out += StrFormat("dram_remote_bw = %.17g\n", desc.demands.dram_remote_bw);
  out += "# steps 2-5 (§4.2-§4.5)\n";
  out += StrFormat("parallel_fraction = %.17g\n", desc.parallel_fraction);
  out += StrFormat("inter_socket_overhead = %.17g\n", desc.inter_socket_overhead);
  out += StrFormat("load_balance = %.17g\n", desc.load_balance);
  out += StrFormat("burstiness = %.17g\n", desc.burstiness);
  out += StrFormat("memory_policy = %s\n", MemoryPolicyName(desc.memory_policy).c_str());
  out += "# profiling bookkeeping\n";
  out += StrFormat("profile_threads = %d\n", desc.profile_threads);
  out += StrFormat("r2 = %.17g\n", desc.r2);
  out += StrFormat("r3 = %.17g\n", desc.r3);
  out += StrFormat("r4 = %.17g\n", desc.r4);
  out += StrFormat("r5 = %.17g\n", desc.r5);
  out += StrFormat("r6 = %.17g\n", desc.r6);
  return out;
}

StatusOr<WorkloadDescription> WorkloadDescriptionFromText(const std::string& text) {
  StatusOr<Document> doc = Document::Parse(text, kWorkloadMagic);
  if (!doc.ok()) {
    return doc.status();
  }
  WorkloadDescription desc;
  const StatusOr<std::string> workload = doc->GetString("workload");
  const StatusOr<std::string> machine = doc->GetString("machine");
  const StatusOr<double> t1 = doc->GetDouble("t1");
  const StatusOr<double> instr = doc->GetDouble("instr_rate");
  const StatusOr<double> l1 = doc->GetDouble("l1_bw");
  const StatusOr<double> l2 = doc->GetDouble("l2_bw");
  const StatusOr<double> l3 = doc->GetDouble("l3_bw");
  const StatusOr<double> dram_local = doc->GetDouble("dram_local_bw");
  const StatusOr<double> dram_remote = doc->GetDouble("dram_remote_bw");
  const StatusOr<double> p = doc->GetDouble("parallel_fraction");
  const StatusOr<double> os = doc->GetDouble("inter_socket_overhead");
  const StatusOr<double> l = doc->GetDouble("load_balance");
  const StatusOr<double> b = doc->GetDouble("burstiness");
  const StatusOr<std::string> policy_name = doc->GetString("memory_policy");
  const StatusOr<int> profile_threads = doc->GetInt("profile_threads");
  const StatusOr<double> r2 = doc->GetDouble("r2");
  const StatusOr<double> r3 = doc->GetDouble("r3");
  const StatusOr<double> r4 = doc->GetDouble("r4");
  const StatusOr<double> r5 = doc->GetDouble("r5");
  const StatusOr<double> r6 = doc->GetDouble("r6");
  for (const Status* status :
       {&workload.status(), &machine.status(), &t1.status(), &instr.status(),
        &l1.status(), &l2.status(), &l3.status(), &dram_local.status(),
        &dram_remote.status(), &p.status(), &os.status(), &l.status(), &b.status(),
        &policy_name.status(), &profile_threads.status(), &r2.status(), &r3.status(),
        &r4.status(), &r5.status(), &r6.status()}) {
    if (!status->ok()) {
      return *status;
    }
  }
  StatusOr<MemoryPolicy> policy = PolicyFromName(*policy_name);
  if (!policy.ok()) {
    return policy.status();
  }
  desc.workload = *workload;
  desc.machine = *machine;
  desc.t1 = *t1;
  desc.demands = ResourceDemandVector{*instr, *l1, *l2, *l3, *dram_local, *dram_remote};
  desc.parallel_fraction = *p;
  desc.inter_socket_overhead = *os;
  desc.load_balance = *l;
  desc.burstiness = *b;
  desc.memory_policy = *policy;
  desc.profile_threads = *profile_threads;
  desc.r2 = *r2;
  desc.r3 = *r3;
  desc.r4 = *r4;
  desc.r5 = *r5;
  desc.r6 = *r6;
  PANDIA_RETURN_IF_ERROR(desc.Validate());
  return desc;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound(
        StrFormat("cannot open '%s' for writing: %s", path.c_str(),
                  std::strerror(errno)));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (!closed || written != content.size()) {
    return Status::DataLoss(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::Ok();
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound(StrFormat("cannot open '%s' for reading: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  std::string content;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) {
    return Status::DataLoss(StrFormat("read error on '%s'", path.c_str()));
  }
  return content;
}

}  // namespace pandia
