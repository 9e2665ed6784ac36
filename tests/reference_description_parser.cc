#include "tests/reference_description_parser.h"

#include <map>

#include "src/util/strings.h"

namespace pandia {
namespace {

constexpr const char* kMachineMagic = "pandia-machine-description v1";
constexpr const char* kWorkloadMagic = "pandia-workload-description v1";

// Minimal key=value document: first line is the magic, then one `key = value`
// per line; '#' starts a comment; blank lines are ignored. Duplicate keys are
// rejected — a hand-edited file where the same key appears twice almost
// certainly does not mean what its author intended.
class Document {
 public:
  static StatusOr<Document> Parse(const std::string& text, const char* magic) {
    Document doc;
    bool saw_magic = false;
    for (std::string line : StrSplit(text, '\n')) {
      const size_t comment = line.find('#');
      if (comment != std::string::npos) {
        line = line.substr(0, comment);
      }
      // Trim.
      const size_t begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos) {
        continue;
      }
      const size_t end = line.find_last_not_of(" \t\r");
      line = line.substr(begin, end - begin + 1);
      if (!saw_magic) {
        if (line != magic) {
          return Status::InvalidArgument(
              StrFormat("expected magic '%s', got '%s'", magic, line.c_str()));
        }
        saw_magic = true;
        continue;
      }
      const size_t eq = line.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(StrFormat("malformed line '%s'", line.c_str()));
      }
      std::string key = line.substr(0, eq);
      std::string value = line.substr(eq + 1);
      const size_t key_end = key.find_last_not_of(" \t");
      key = key_end == std::string::npos ? "" : key.substr(0, key_end + 1);
      const size_t value_begin = value.find_first_not_of(" \t");
      value = value_begin == std::string::npos ? "" : value.substr(value_begin);
      if (key.empty()) {
        return Status::InvalidArgument(StrFormat("empty key in '%s'", line.c_str()));
      }
      if (!doc.values_.emplace(key, value).second) {
        return Status::InvalidArgument(StrFormat("duplicate key '%s'", key.c_str()));
      }
    }
    if (!saw_magic) {
      return Status::DataLoss(
          StrFormat("missing magic line '%s' (empty or truncated input?)", magic));
    }
    return doc;
  }

  StatusOr<std::string> GetString(const char* key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::DataLoss(StrFormat("missing key '%s'", key));
    }
    return it->second;
  }

  StatusOr<double> GetDouble(const char* key) const {
    StatusOr<std::string> raw = GetString(key);
    if (!raw.ok()) {
      return raw.status();
    }
    char* end = nullptr;
    const double value = std::strtod(raw->c_str(), &end);
    if (end == raw->c_str() || *end != '\0') {
      return Status::InvalidArgument(
          StrFormat("key '%s' has non-numeric value '%s'", key, raw->c_str()));
    }
    return value;
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
  std::map<std::string, std::string> values_;
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

StatusOr<MachineDescription> ReferenceMachineDescriptionFromText(
    const std::string& text) {
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

StatusOr<WorkloadDescription> ReferenceWorkloadDescriptionFromText(
    const std::string& text) {
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

}  // namespace pandia
