#include "src/machine_desc/machine_description.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace pandia {

std::vector<double> MachineDescription::Capacities(
    const std::vector<uint8_t>& threads_per_core) const {
  PANDIA_CHECK(static_cast<int>(threads_per_core.size()) == topo.NumCores());
  const ResourceIndex index(topo);
  std::vector<double> caps(static_cast<size_t>(index.Count()), 0.0);
  for (int c = 0; c < topo.NumCores(); ++c) {
    caps[index.Core(c)] = threads_per_core[c] >= 2 ? smt_combined_ops : core_ops;
    caps[index.L1(c)] = l1_bw;
    caps[index.L2(c)] = l2_bw;
    caps[index.L3Port(c)] = l3_port_bw;
  }
  for (int s = 0; s < topo.num_sockets; ++s) {
    caps[index.L3Agg(s)] = l3_agg_bw;
    caps[index.Dram(s)] = dram_bw;
  }
  for (int a = 0; a < topo.num_sockets; ++a) {
    for (int b = a + 1; b < topo.num_sockets; ++b) {
      caps[index.Link(a, b)] = link_bw;
    }
  }
  return caps;
}

Status MachineDescription::Validate() const {
  // Hard cap on topology dimensions: large enough for any machine the paper
  // era or this simulator models, small enough that a corrupt value cannot
  // drive allocation sizes through the roof.
  constexpr int kMaxDim = 1024;
  const auto check_dim = [](const char* field, int value) -> Status {
    if (value <= 0 || value > kMaxDim) {
      return Status::InvalidArgument(
          StrFormat("machine description field '%s' must be in [1, %d], got %d",
                    field, kMaxDim, value));
    }
    return Status::Ok();
  };
  PANDIA_RETURN_IF_ERROR(check_dim("sockets", topo.num_sockets));
  PANDIA_RETURN_IF_ERROR(check_dim("cores_per_socket", topo.cores_per_socket));
  PANDIA_RETURN_IF_ERROR(check_dim("threads_per_core", topo.threads_per_core));
  const auto check_positive = [](const char* field, double value) -> Status {
    if (!std::isfinite(value) || value <= 0.0) {
      return Status::InvalidArgument(StrFormat(
          "machine description field '%s' must be finite and positive, got %g",
          field, value));
    }
    return Status::Ok();
  };
  PANDIA_RETURN_IF_ERROR(check_positive("l1_size", topo.l1_size));
  PANDIA_RETURN_IF_ERROR(check_positive("l2_size", topo.l2_size));
  PANDIA_RETURN_IF_ERROR(check_positive("l3_size", topo.l3_size));
  PANDIA_RETURN_IF_ERROR(check_positive("core_ops", core_ops));
  PANDIA_RETURN_IF_ERROR(check_positive("smt_combined_ops", smt_combined_ops));
  PANDIA_RETURN_IF_ERROR(check_positive("l1_bw", l1_bw));
  PANDIA_RETURN_IF_ERROR(check_positive("l2_bw", l2_bw));
  PANDIA_RETURN_IF_ERROR(check_positive("l3_port_bw", l3_port_bw));
  PANDIA_RETURN_IF_ERROR(check_positive("l3_agg_bw", l3_agg_bw));
  PANDIA_RETURN_IF_ERROR(check_positive("dram_bw", dram_bw));
  if (topo.num_sockets > 1) {
    PANDIA_RETURN_IF_ERROR(check_positive("link_bw", link_bw));
  }
  return Status::Ok();
}

std::string MachineDescription::ToString() const {
  return StrFormat(
      "%s: %d sockets x %d cores x %d threads; core=%.2f smt=%.2f l1=%.1f l2=%.1f "
      "l3port=%.1f l3agg=%.1f dram=%.1f link=%.1f",
      topo.name.c_str(), topo.num_sockets, topo.cores_per_socket,
      topo.threads_per_core, core_ops, smt_combined_ops, l1_bw, l2_bw, l3_port_bw,
      l3_agg_bw, dram_bw, link_bw);
}

}  // namespace pandia
