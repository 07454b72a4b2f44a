// llamcat_lint: the repo's determinism & concurrency checker (src/lint).
//
//   llamcat_lint src tools              # lint the simulation tree (CI mode)
//   llamcat_lint src/sim/system.cpp     # lint one file
//   llamcat_lint --list-rules           # rule catalog (id + summary)
//   llamcat_lint --json=lint.json src   # machine-readable findings
//
// Exit code 0 = clean (suppressions are fine), 1 = active violations,
// 2 = bad usage or unreadable input. docs/static-analysis.md documents
// every rule, the suppression policy, and how to add a rule + fixture.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/options.hpp"
#include "lint/lint.hpp"

namespace {

constexpr std::string_view kUsageHeader =
    "usage: llamcat_lint [--flag=value ...] PATH...\n"
    "  PATH: a file, or a directory scanned recursively for .cpp/.hpp/.cc/.h\n";

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void write_json(std::ostream& os, std::size_t files,
                const std::vector<llamcat::lint::Violation>& violations,
                const std::vector<llamcat::lint::Violation>& suppressed) {
  os << "{\n  \"files\": " << files
     << ",\n  \"suppressed\": " << suppressed.size()
     << ",\n  \"violations\": [\n";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const auto& v = violations[i];
    os << "    {\"file\": \"" << json_escape(v.file)
       << "\", \"line\": " << v.line << ", \"rule\": \"" << v.rule
       << "\", \"message\": \"" << json_escape(v.message) << "\"}"
       << (i + 1 < violations.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  llamcat::LintOptions opt;
  const std::vector<llamcat::CliFlag> flags = llamcat::lint_flags(opt);
  const std::string usage = llamcat::flags_usage(kUsageHeader, flags);
  std::vector<std::string_view> inputs;
  if (const auto stop =
          llamcat::parse_command_line(flags, usage, {argv + 1, argv + argc},
                                      std::cout, std::cerr, &inputs)) {
    return *stop;
  }
  if (opt.list_rules) {
    for (const auto& r : llamcat::lint::rules()) {
      std::cout << r.name << "\n    " << r.summary << "\n";
    }
    return 0;
  }
  if (inputs.empty()) {
    std::cerr << "error: no inputs\n\n" << usage;
    return 2;
  }
  const std::vector<std::string> paths(inputs.begin(), inputs.end());

  std::vector<llamcat::lint::Violation> violations;
  std::vector<llamcat::lint::Violation> suppressed;
  std::vector<std::string> files;
  try {
    files = llamcat::lint::collect_inputs(paths);
    for (const std::string& f : files) {
      auto report = llamcat::lint::lint_file(f);
      for (auto& v : report.violations) violations.push_back(std::move(v));
      for (auto& v : report.suppressed) suppressed.push_back(std::move(v));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  for (const auto& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cout << files.size() << " files, " << violations.size()
            << " violations, " << suppressed.size()
            << " suppressed\n";

  if (!opt.json_path.empty()) {
    if (opt.json_path == "-") {
      write_json(std::cout, files.size(), violations, suppressed);
    } else {
      std::ofstream out(opt.json_path);
      if (!out) {
        std::cerr << "error: cannot open " << opt.json_path << "\n";
        return 2;
      }
      write_json(out, files.size(), violations, suppressed);
      std::cout << "wrote " << opt.json_path << "\n";
    }
  }
  return violations.empty() ? 0 : 1;
}
