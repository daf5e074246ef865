#ifndef ARIADNE_PQL_LINT_DRIVER_H_
#define ARIADNE_PQL_LINT_DRIVER_H_

#include <string>
#include <vector>

namespace ariadne::lint {

/// The `ariadne_lint` command line, testable without a process boundary.
/// `args` excludes argv[0]; normal output is appended to `out`,
/// usage/IO errors to `err`.
///
/// `--explain FILE` lints FILE like any other input and, when it
/// analyzes cleanly, appends its classification (analysis dump, eligible
/// eval modes, capture path, output tables); it never changes the exit
/// code.
///
/// Exit codes:
///   0  clean, or warnings only (without --Werror)
///   1  diagnostics with error severity, or warnings under --Werror
///   2  usage error or file IO failure
int RunAriadneLint(const std::vector<std::string>& args, std::string* out,
                   std::string* err);

}  // namespace ariadne::lint

#endif  // ARIADNE_PQL_LINT_DRIVER_H_
