// Differential test of the description parsers: src/serialize's one-pass
// parsers against the map-based reference they replaced
// (tests/reference_description_parser.h). Seeded mutants of canonical
// machine and workload texts and of the corrupt-input corpus go to both;
// each pair must agree on ok or error, on the status code and message, and
// on every parsed field bit for bit.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/eval/pipeline.h"
#include "src/serialize/serialize.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"
#include "tests/reference_description_parser.h"

#ifndef PANDIA_TEST_DATA_DIR
#error "PANDIA_TEST_DATA_DIR must be defined by the build"
#endif

namespace pandia {
namespace {

constexpr int kMutantsPerParser = 100000;

std::vector<std::string> CorpusTexts() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(PANDIA_TEST_DATA_DIR) / "corrupt")) {
    if (entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const std::filesystem::path& file : files) {
    StatusOr<std::string> text = ReadTextFile(file.string());
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    texts.push_back(text.ok() ? *text : "");
  }
  return texts;
}

// A byte drawn mostly from those the parsers treat specially: comment,
// separator and whitespace bytes, line ends, NUL, and the characters of a
// number. One draw in four is any byte.
char MutationByte(Rng& rng) {
  static constexpr char kSpecial[] = {'#', '=', ' ', '\t', '\r', '\n', '\0', '+',
                                      '-', '.', 'e', 'E', '0', '1', '2', '3',
                                      '4', '5', '6', '7', '8', '9'};
  if (rng.NextBounded(4) == 0) {
    return static_cast<char>(rng.NextBounded(256));
  }
  return kSpecial[rng.NextBounded(sizeof kSpecial)];
}

// Splits `text` into lines that keep their '\n', so joining them gives the
// text back.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t newline = text.find('\n', start);
    const size_t end = newline == std::string::npos ? text.size() : newline + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

enum Edit {
  kFlipByte,
  kInsertByte,
  kDeleteByte,
  kDuplicateByte,
  kFlipLine,  // replaced by another of the text's lines
  kInsertLine,
  kDeleteLine,
  kDuplicateLine,
  kInsertUnknownKey,
  kEditCount,
};

// Applies one to four random edits to `text`.
std::string Mutate(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < edits; ++i) {
    const auto edit = static_cast<Edit>(rng.NextBounded(kEditCount));
    if (edit <= kDuplicateByte) {
      const size_t at = rng.NextBounded(text.size() + 1);
      if (edit == kInsertByte || text.empty()) {
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), MutationByte(rng));
      } else if (at == text.size()) {
        continue;
      } else if (edit == kFlipByte) {
        text[at] = MutationByte(rng);
      } else if (edit == kDeleteByte) {
        text.erase(at, 1);
      } else {
        text.insert(at, 1, text[at]);
      }
      continue;
    }
    std::vector<std::string> lines = Lines(text);
    const size_t at = rng.NextBounded(lines.size() + 1);
    if (edit == kInsertUnknownKey || lines.empty()) {
      std::string line = StrFormat("unknown_%llu = ", static_cast<unsigned long long>(
                                                          rng.NextBounded(4)));
      for (uint64_t n = rng.NextBounded(6); n > 0; --n) {
        line += MutationByte(rng);
      }
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line + "\n");
    } else {
      const std::string other = lines[rng.NextBounded(lines.size())];
      if (edit == kInsertLine) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), other);
      } else if (at == lines.size()) {
        continue;
      } else if (edit == kFlipLine) {
        lines[at] = other;
      } else if (edit == kDeleteLine) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      }
    }
    text.clear();
    for (const std::string& line : lines) {
      text += line;
    }
  }
  return text;
}

std::string Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return StrFormat("%016llx ", static_cast<unsigned long long>(bits));
}

// Every field a machine parse sets, doubles by their bits, strings raw.
std::string Fields(const MachineDescription& desc) {
  std::string out = desc.topo.name + "\n";
  out += StrFormat("%d %d %d ", desc.topo.num_sockets, desc.topo.cores_per_socket,
                   desc.topo.threads_per_core);
  for (const double value :
       {desc.topo.l1_size, desc.topo.l2_size, desc.topo.l3_size, desc.core_ops,
        desc.smt_combined_ops, desc.l1_bw, desc.l2_bw, desc.l3_port_bw, desc.l3_agg_bw,
        desc.dram_bw, desc.link_bw}) {
    out += Bits(value);
  }
  return out;
}

// Every field a workload parse sets, doubles by their bits, strings raw.
std::string Fields(const WorkloadDescription& desc) {
  std::string out = desc.workload + "\n" + desc.machine + "\n";
  out += StrFormat("%d %d ", static_cast<int>(desc.memory_policy), desc.profile_threads);
  for (const double value :
       {desc.t1, desc.demands.instr_rate, desc.demands.l1_bw, desc.demands.l2_bw,
        desc.demands.l3_bw, desc.demands.dram_local_bw, desc.demands.dram_remote_bw,
        desc.parallel_fraction, desc.inter_socket_overhead, desc.load_balance,
        desc.burstiness, desc.r2, desc.r3, desc.r4, desc.r5, desc.r6}) {
    out += Bits(value);
  }
  return out;
}

// The whole outcome of one parse: ok and its fields, or the error's code
// and message.
template <typename Description>
std::string Outcome(const StatusOr<Description>& parsed) {
  if (parsed.ok()) {
    return "ok\n" + Fields(*parsed);
  }
  return StrFormat("error %d\n", static_cast<int>(parsed.status().code())) +
         parsed.status().message();
}

// The input with every byte outside printable ASCII written as \xNN, for a
// failure message.
std::string Printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    out += byte >= 0x20 && byte < 0x7f && c != '\\'
               ? std::string(1, c)
               : StrFormat("\\x%02x", static_cast<unsigned>(byte));
  }
  return out;
}

struct DifferentialResult {
  int accepted = 0;
  int mismatches = 0;
  std::string first_mismatch;
};

// Mutates a canonical text three times in four and a corpus file otherwise,
// so that a fair share of the mutants still parses.
template <typename Description>
DifferentialResult RunDifferential(
    const std::vector<std::string>& canonical, uint64_t seed,
    const std::function<StatusOr<Description>(const std::string&)>& fast,
    const std::function<StatusOr<Description>(const std::string&)>& reference) {
  const std::vector<std::string> corpus = CorpusTexts();
  DifferentialResult result;
  Rng rng(seed);
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::vector<std::string>& seeds = rng.NextBounded(4) == 0 ? corpus : canonical;
    const std::string text = Mutate(seeds[rng.NextBounded(seeds.size())], rng);
    const StatusOr<Description> got = fast(text);
    const std::string got_outcome = Outcome(got);
    const std::string want_outcome = Outcome(reference(text));
    result.accepted += got.ok() ? 1 : 0;
    if (got_outcome != want_outcome && result.mismatches++ == 0) {
      result.first_mismatch = "input: " + Printable(text) + "\nparser: " +
                              Printable(got_outcome) +
                              "\nreference: " + Printable(want_outcome);
    }
  }
  return result;
}

TEST(SerializeDifferential, MachineParserMatchesTheReference) {
  std::vector<std::string> seeds;
  for (const char* machine : {"x5-2", "x4-2", "x3-2", "x2-4"}) {
    seeds.push_back(MachineDescriptionToText(eval::Pipeline(machine).description()));
  }
  const DifferentialResult result = RunDifferential<MachineDescription>(
      seeds, 1, MachineDescriptionFromText, ReferenceMachineDescriptionFromText);
  EXPECT_EQ(result.mismatches, 0) << result.first_mismatch;
  // Both outcomes are well represented, so neither path is tested vacuously.
  EXPECT_GT(result.accepted, kMutantsPerParser / 50);
  EXPECT_LT(result.accepted, kMutantsPerParser - kMutantsPerParser / 50);
}

TEST(SerializeDifferential, WorkloadParserMatchesTheReference) {
  std::vector<std::string> seeds;
  const eval::Pipeline pipeline("x3-2");
  for (const char* workload : {"EP", "CG", "MD", "Swim"}) {
    seeds.push_back(
        WorkloadDescriptionToText(pipeline.Profile(workloads::ByName(workload))));
  }
  const DifferentialResult result = RunDifferential<WorkloadDescription>(
      seeds, 2, WorkloadDescriptionFromText, ReferenceWorkloadDescriptionFromText);
  EXPECT_EQ(result.mismatches, 0) << result.first_mismatch;
  EXPECT_GT(result.accepted, kMutantsPerParser / 50);
  EXPECT_LT(result.accepted, kMutantsPerParser - kMutantsPerParser / 50);
}

}  // namespace
}  // namespace pandia
