// Pipeline: the harness that sequences passes over a Design.
//
// All obs/exec integration for the flow lives here, once: before each pass
// the harness polls the installed ExecBudget (`check_now`, so deadlines are
// seen at every pass boundary, not every 64th) and crosses the
// "pipeline.pass" fault point; around each pass it opens the per-pass
// RDC_SPAN and times the pass into the Design's FlowReport (coalescing
// adjacent passes of one phase family so report JSON stays byte-compatible
// with the pre-pass-manager flow); after each pass it converts any internal
// throw into an exec::Status annotated with the pass name.
//
// `parse_pipeline` turns a spec string — `pass ('|' pass)*` with optional
// `(arg,...)` lists, e.g. "assign:ranking(0.5) | espresso | factor | aig |
// map:power" — into a Pipeline, with offset-annotated errors and no partial
// pipelines. run_flow (flow/synthesis_flow.hpp) takes a spec string and
// derives its degradation ladder's rungs from the parsed pipeline.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/status.hpp"
#include "flow/pass.hpp"
#include "obs/report.hpp"

namespace rdc::flow {

/// An ordered sequence of passes plus the run harness. Build one by hand
/// with `append()` or from a spec string with `parse_pipeline()`; a
/// Pipeline is reusable — `run()` may be called on any number of Designs.
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  void append(std::unique_ptr<Pass> pass) {
    passes_.push_back(std::move(pass));
  }

  std::size_t size() const { return passes_.size(); }
  bool empty() const { return passes_.empty(); }
  const Pass& at(std::size_t i) const { return *passes_.at(i); }

  /// Canonical spec string that parses back into an equivalent pipeline
  /// ("assign:ranking(0.5) | espresso | factor | aig | map:power").
  std::string to_string() const;

  /// Runs every pass in order over `design` (see the file comment for what
  /// the harness does around each one). Stops at the first failure and
  /// returns its Status annotated with the failing pass's name; the Design
  /// keeps all artifacts produced so far. On success, stamps the
  /// deterministic result metrics into design.report.
  exec::Status run(Design& design) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Parses a pipeline spec string. Grammar:
///
///   pipeline := pass ('|' pass)*
///   pass     := name [ '(' arg (',' arg)* ')' ]
///   name     := [A-Za-z0-9_:.-]+         (a registered pass name)
///
/// Whitespace around tokens is ignored. Errors are kInvalidArgument with
/// the byte offset of the problem ("pipeline spec: unknown pass 'x' at
/// offset 7"); on error no partial pipeline is returned.
exec::Result<Pipeline> parse_pipeline(std::string_view spec);

}  // namespace rdc::flow
