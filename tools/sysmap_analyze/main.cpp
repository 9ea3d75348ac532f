// sysmap_analyze: multi-pass static analyzer for the sysmap tree.
//
// Usage:
//   sysmap_analyze [--json <out.json>] [--pass <name>]... [-I <dir>]...
//                  <file-or-dir>...
//
// Passes (all run by default; --pass selects a subset):
//   guards       exactness discipline: raw-arith, narrowing, annotation
//                grammar, and the interprocedural fallback-guard check
//   determinism  order-sensitivity: unordered iteration, shared
//                accumulators in fork-join callbacks, pointer/hash
//                comparators, wall-clock/rand in engine code
//   layering     the module include-DAG
//
// Directories are scanned recursively for .hpp/.cpp files; lint_fixtures
// directories are skipped unless named explicitly (they exist to FAIL).
// Exit status: 0 no diagnostics, 1 diagnostics reported, 2 usage/IO error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "file_model.hpp"
#include "frontend_clang.hpp"
#include "pass_determinism.hpp"
#include "pass_guards.hpp"
#include "pass_layering.hpp"
#include "report.hpp"

namespace fs = std::filesystem;
using sysmap::lint::Diagnostic;
using sysmap::lint::FileModel;
using sysmap::lint::RunReport;

namespace {

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

int collect_files(const std::string& arg, std::vector<std::string>& out) {
  std::error_code ec;
  fs::file_status st = fs::status(arg, ec);
  if (ec || st.type() == fs::file_type::not_found) {
    std::cerr << "sysmap_analyze: no such file or directory: " << arg << "\n";
    return 2;
  }
  if (fs::is_directory(st)) {
    fs::recursive_directory_iterator it(arg, ec), end;
    for (; it != end && !ec; it.increment(ec)) {
      if (it->is_directory() &&
          it->path().filename().string() == "lint_fixtures") {
        it.disable_recursion_pending();  // negative fixtures fail on purpose
        continue;
      }
      if (it->is_regular_file() && analyzable(it->path())) {
        out.push_back(it->path().string());
      }
    }
    if (ec) {
      std::cerr << "sysmap_analyze: error scanning " << arg << ": "
                << ec.message() << "\n";
      return 2;
    }
    return 0;
  }
  out.push_back(arg);
  return 0;
}

int usage() {
  std::cerr << "usage: sysmap_analyze [--json <out.json>] "
               "[--pass guards|determinism|layering]... [-I <dir>]... "
               "<file-or-dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> include_dirs;
  std::vector<std::string> passes;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) return usage();
      json_path = argv[i];
    } else if (arg == "--pass") {
      if (++i >= argc) return usage();
      std::string p = argv[i];
      if (p != "guards" && p != "determinism" && p != "layering") {
        std::cerr << "sysmap_analyze: unknown pass: " << p << "\n";
        return usage();
      }
      passes.push_back(p);
    } else if (arg == "-I") {
      if (++i >= argc) return usage();
      include_dirs.push_back(argv[i]);
    } else if (arg.rfind("-I", 0) == 0 && arg.size() > 2) {
      include_dirs.push_back(arg.substr(2));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();
  if (passes.empty()) passes = {"guards", "determinism", "layering"};
  auto enabled = [&](const char* p) {
    return std::find(passes.begin(), passes.end(), p) != passes.end();
  };

  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    if (int rc = collect_files(in, files); rc != 0) return rc;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  RunReport run;
  run.files = files;
  run.passes = passes;
  run.clang_frontend = sysmap::lint::clang_frontend_available();

  sysmap::lint::GuardsPass guards;
  sysmap::lint::DeterminismPass determinism;
  sysmap::lint::LayeringPass layering;

  for (const std::string& file : files) {
    std::ifstream is(file, std::ios::binary);
    if (!is) {
      std::cerr << "sysmap_analyze: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    FileModel model(file, buf.str());
    for (const sysmap::lint::Annotation& a : model.annotations()) {
      if (a.well_formed) ++run.annotation_count;
    }
    if (enabled("guards")) {
      guards.analyze(model, run.diagnostics);
      // The AST cross-check is worth a second parse only on the kernel
      // surface, where the token heuristics police real arithmetic.
      if (run.clang_frontend &&
          sysmap::lint::GuardsPass::kernel_surface(file)) {
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        for (const sysmap::lint::FunctionBody& f : model.functions()) {
          if (f.fastpath) {
            ranges.emplace_back(model.tok(f.open).line,
                                model.tok(f.close).line);
          }
        }
        for (Diagnostic& d : sysmap::lint::clang_narrowing_check(
                 file, ranges, include_dirs)) {
          d.pass = "guards";
          run.diagnostics.push_back(std::move(d));
        }
      }
    }
    if (enabled("determinism")) determinism.analyze(model, run.diagnostics);
    if (enabled("layering")) layering.analyze(model, run.diagnostics);
  }
  if (enabled("guards")) guards.finalize(run.diagnostics);

  std::sort(run.diagnostics.begin(), run.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });

  for (const Diagnostic& d : run.diagnostics) {
    std::cerr << d.file << ":" << d.line << ":" << d.col << ": [" << d.pass
              << "/" << d.rule << "]";
    if (!d.function.empty()) std::cerr << " in '" << d.function << "'";
    std::cerr << ": " << d.message << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "sysmap_analyze: cannot write " << json_path << "\n";
      return 2;
    }
    sysmap::lint::write_json(os, run);
  }

  std::cerr << "sysmap_analyze: " << files.size() << " file(s), "
            << run.annotation_count << " annotation(s), "
            << run.diagnostics.size() << " diagnostic(s)"
            << (run.clang_frontend ? " [libclang frontend active]"
                                   : " [token frontend only]")
            << "\n";
  return run.diagnostics.empty() ? 0 : 1;
}
