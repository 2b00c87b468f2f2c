// exhibits: regenerates the paper's Section 6 exhibits (see EXPERIMENTS.md).
//
//   exhibits [NAME...]
//
// Runs the named exhibits (all of them when none is named) and prints each
// as markdown between `<!-- exhibit NAME -->` markers; scripts/exhibits.py
// splices that output into EXPERIMENTS.md. Exits 1 when an exhibit's own
// check fails (Figure 7's crash sweep or ablation A1's forwarding
// outcome), 2 on an unknown name.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exhibits.h"

int main(int argc, char** argv) {
  using namespace ecdb::exhibits;
  std::vector<const Exhibit*> selected;
  for (int i = 1; i < argc; ++i) {
    const Exhibit* exhibit = nullptr;
    for (const Exhibit& e : AllExhibits()) {
      if (std::strcmp(argv[i], e.name) == 0) exhibit = &e;
    }
    if (exhibit == nullptr) {
      std::fprintf(stderr, "unknown exhibit '%s'; known:", argv[i]);
      for (const Exhibit& e : AllExhibits()) {
        std::fprintf(stderr, " %s", e.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(exhibit);
  }
  if (selected.empty()) {
    for (const Exhibit& e : AllExhibits()) selected.push_back(&e);
  }

  CellRunner cells;
  bool ok = true;
  for (size_t i = 0; i < selected.size(); ++i) {
    std::string out = i == 0 ? "" : "\n";
    if (!RunExhibit(*selected[i], cells, &out)) {
      std::fprintf(stderr, "exhibits: %s failed its check\n",
                   selected[i]->name);
      ok = false;
    }
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }
  return ok ? 0 : 1;
}
