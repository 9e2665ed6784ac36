// Textual serialization of machine and workload descriptions.
//
// A machine description is created once per machine (§3) and a workload
// description once per workload per machine (§4); both are meant to be
// stored and shipped (the portability study of §6.1 moves workload
// descriptions between machines). The format is a line-based `key = value`
// text with '#' comments, stable across versions via a leading magic line.
//
// Parsing is strict and never aborts: malformed input (wrong magic, missing
// or duplicate keys, non-numeric values) and implausible field values
// (NaN/Inf capacities, out-of-range model parameters — enforced via the
// descriptions' Validate() methods) surface as a Status naming the
// offending key.
//
// Parsing is one pass over the text: lines are string_views into it, held
// in a flat vector sorted by key hash, and only the values become copies (a
// string field, or the NUL-terminated buffer strtod reads). It must accept
// the same texts, parse the same bits and report the same errors as the
// map-based reference parser in tests/, which
// tests/serialize_differential_test.cc checks on seeded mutants.
#ifndef PANDIA_SRC_SERIALIZE_SERIALIZE_H_
#define PANDIA_SRC_SERIALIZE_SERIALIZE_H_

#include <string>

#include "src/machine_desc/machine_description.h"
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {

std::string MachineDescriptionToText(const MachineDescription& desc);
StatusOr<MachineDescription> MachineDescriptionFromText(const std::string& text);

std::string WorkloadDescriptionToText(const WorkloadDescription& desc);
StatusOr<WorkloadDescription> WorkloadDescriptionFromText(const std::string& text);

// Whole-file convenience wrappers; errors carry the path.
Status WriteTextFile(const std::string& path, const std::string& content);
StatusOr<std::string> ReadTextFile(const std::string& path);

}  // namespace pandia

#endif  // PANDIA_SRC_SERIALIZE_SERIALIZE_H_
