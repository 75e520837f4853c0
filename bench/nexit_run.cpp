// The one scenario driver. Every paper figure/ablation — and any composed
// scenario or sweep you can spell as a spec — runs from here:
//
//   nexit_run --list-scenarios                 # what's registered
//   nexit_run --help-spec                      # every spec key, documented
//   nexit_run --scenario=fig9 --isps=24        # a paper figure, re-knobbed
//   nexit_run --spec=scenarios/my.spec --json=out.json
//   nexit_run --scenario=fig7 --incremental=false --threads=4
//   nexit_run --scenario=fig4 --sweep.isps=20:65:15   # a declared sweep
//   nexit_run --scenario=runtime_churn         # a runtime timeline
//   nexit_run --scenario=abl_pref_range --spec-out=archive.spec
//
// `--scenario=<name>` picks a preset (its per-figure defaults applied
// first); `--spec=<file>` overlays a key=value spec file; remaining flags
// override individual keys, and `sweep.<key>=` lines declare sweep axes.
// Without --scenario the generic "custom" runner executes whatever the
// spec describes (including experiment=runtime timelines).
// tests/golden/scenarios.tsv pins the digest, stdout and record of every
// preset and shipped spec (tools/golden.py). `--help-spec[=<key>]` prints
// the key metadata the parser itself enforces; `--help-spec=markdown` emits
// docs/SPEC_REFERENCE.md (CI regenerates it and fails on drift).

#include <iostream>

#include "sim/scenarios.hpp"
#include "sim/spec_docs.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace nexit;
  util::Flags flags(argc, argv);

  // Bare --list-scenarios parses as "true" (the human table); "tsv" is the
  // machine form tools/golden.py and the README catalog generator read. Anything else is a typo
  // and must error, not silently print prose into a script's pipe.
  const std::string list =
      flags.get_choice("list-scenarios", {"true", "table", "tsv"}, "");
  if (!list.empty()) {
    // --list-scenarios combines with nothing else: a stray flag next to it
    // is a typo and must exit 2 like everywhere else in this repo.
    util::reject_unknown(flags);
    if (list == "tsv") {
      sim::print_scenario_tsv(std::cout);
    } else {
      sim::print_scenario_list(std::cout);
    }
    return 0;
  }

  // --help-spec: the self-documenting side of the spec system. Bare form
  // lists every key; `=<key>` details one; `=markdown` emits the reference
  // doc. Like --list-scenarios it combines with nothing else.
  const std::string help_spec = flags.get_string("help-spec", "");
  if (!help_spec.empty()) {
    util::reject_unknown(flags);
    if (help_spec == "true") {
      sim::print_spec_help(std::cout);
    } else if (help_spec == "markdown") {
      sim::print_spec_reference_markdown(std::cout);
    } else if (!sim::print_spec_key_help(std::cout, help_spec)) {
      std::cerr << "error: --help-spec: unknown key \"" << help_spec
                << "\"; valid keys:";
      for (const sim::SpecKeyInfo& info : sim::spec_key_registry())
        std::cerr << " " << (info.sweep_only ? "sweep." + info.key : info.key);
      std::cerr << "\n";
      return 2;
    }
    return 0;
  }

  const std::string name =
      flags.get_choice("scenario", sim::scenario_names(), "custom");
  const sim::ScenarioPreset* preset = sim::find_scenario(name);
  return sim::run_scenario(*preset, flags);
}
