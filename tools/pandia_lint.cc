// pandia_lint — walks the tree and runs the repo-invariant lint rules over
// every .h/.cc file: the per-line rules (src/lint/lint.h) on each file, then
// the cross-file rules (src/lint/analyze.h) on all of them together with
// DESIGN.md.
//
//   pandia_lint [--root=DIR] [PATH...]   lint PATHs (default: src tests tools)
//   pandia_lint --list-rules             print the rules and exit
//
// Paths are relative to --root (default: the current directory). Output is
// one "file:line: rule: message" diagnostic per finding; the exit code is 0
// when the tree is clean, 1 when anything fired, 2 on usage or I/O errors.
// Suppress a deliberate violation on its line with
//   // pandia-lint: allow(<rule>) <why>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/lint/analyze.h"
#include "src/lint/lint.h"

namespace {

namespace fs = std::filesystem;

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

// Collects the repo-relative (generic, forward-slash) paths of every source
// file under `target`, which may itself be a single file.
bool CollectFiles(const fs::path& root, const std::string& target,
                  std::vector<std::string>* files) {
  std::error_code ec;
  const fs::path full = root / target;
  if (fs::is_regular_file(full, ec)) {
    files->push_back(target);
    return true;
  }
  if (!fs::is_directory(full, ec)) {
    std::fprintf(stderr, "pandia_lint: no such file or directory: %s\n",
                 full.string().c_str());
    return false;
  }
  for (fs::recursive_directory_iterator it(full, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      std::fprintf(stderr, "pandia_lint: error walking %s: %s\n",
                   full.string().c_str(), ec.message().c_str());
      return false;
    }
    if (it->is_regular_file() && IsSourceFile(it->path())) {
      files->push_back(
          fs::relative(it->path(), root, ec).generic_string());
    }
  }
  std::sort(files->begin(), files->end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto* rules :
           {&pandia::lint::Rules(), &pandia::lint::AnalyzerRules()}) {
        for (const pandia::lint::RuleInfo& rule : *rules) {
          std::printf("%-17s %s\n", std::string(rule.name).c_str(),
                      std::string(rule.summary).c_str());
        }
      }
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = std::string(arg.substr(7));
      continue;
    }
    if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: pandia_lint [--root=DIR] [PATH...]\n"
                   "       pandia_lint --list-rules\n");
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
    targets.emplace_back(arg);
  }
  if (targets.empty()) {
    targets = {"src", "tests", "tools"};
  }

  std::vector<std::string> files;
  for (const std::string& target : targets) {
    if (!CollectFiles(root, target, &files)) return 2;
  }

  size_t finding_count = 0;
  std::vector<pandia::lint::SourceFile> sources;
  for (const std::string& file : files) {
    std::string content;
    if (!ReadFile(fs::path(root) / file, &content)) {
      std::fprintf(stderr, "pandia_lint: cannot read %s\n", file.c_str());
      return 2;
    }
    for (const pandia::lint::Finding& finding :
         pandia::lint::LintFile(file, content)) {
      std::printf("%s\n", pandia::lint::FormatFinding(finding).c_str());
      ++finding_count;
    }
    sources.push_back(pandia::lint::SourceFile{file, std::move(content)});
  }
  std::error_code ec;
  const fs::path design = fs::path(root) / "DESIGN.md";
  if (fs::is_regular_file(design, ec)) {
    std::string design_text;
    if (!ReadFile(design, &design_text)) {
      std::fprintf(stderr, "pandia_lint: cannot read DESIGN.md\n");
      return 2;
    }
    sources.push_back(
        pandia::lint::SourceFile{"DESIGN.md", std::move(design_text)});
  }
  for (const pandia::lint::Finding& finding :
       pandia::lint::AnalyzeFiles(sources).findings) {
    std::printf("%s\n", pandia::lint::FormatFinding(finding).c_str());
    ++finding_count;
  }
  if (finding_count > 0) {
    std::fprintf(stderr, "pandia_lint: %zu finding%s in %zu files\n",
                 finding_count, finding_count == 1 ? "" : "s", files.size());
    return 1;
  }
  return 0;
}
