// Retained reference implementation of the description parsers.
//
// This is the map-based parser that src/serialize/serialize.cc's one-pass
// parser replaced, kept verbatim as the differential oracle: the production
// parsers must accept exactly the same texts, parse every field to the same
// bits, and reject the rest with the same status code and message. It
// copies every line and allocates freely, and is compiled into
// serialize_differential_test only; no library ships it.
#ifndef PANDIA_TESTS_REFERENCE_DESCRIPTION_PARSER_H_
#define PANDIA_TESTS_REFERENCE_DESCRIPTION_PARSER_H_

#include <string>

#include "src/machine_desc/machine_description.h"
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {

StatusOr<MachineDescription> ReferenceMachineDescriptionFromText(
    const std::string& text);
StatusOr<WorkloadDescription> ReferenceWorkloadDescriptionFromText(
    const std::string& text);

}  // namespace pandia

#endif  // PANDIA_TESTS_REFERENCE_DESCRIPTION_PARSER_H_
