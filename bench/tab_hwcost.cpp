// Reproduces the paper's §6.1 hardware-cost evaluation (substitution: the
// paper synthesizes Chisel with Synopsys DC on the 15nm NanGate library;
// this uses the structural area model in src/hwcost, calibrated to that
// library's cell sizes - see DESIGN.md §4).
#include <iostream>

#include "bench_util.hpp"
#include "hwcost/area_model.hpp"

using namespace llamcat;
using namespace llamcat::bench;

int main(int argc, char** argv) {
  parse_or_exit(argc, argv, bench_flags(nullptr, nullptr));  // --help only
  print_header("§6.1 hardware cost: arbiter + hit buffer area @15nm");

  const SimConfig cfg = SimConfig::table5();
  const AreaBreakdown hb = hit_buffer_area(cfg.arb);
  const AreaBreakdown arb = arbiter_area(cfg.llc, cfg.arb,
                                         cfg.core.num_cores);

  TextTable t("Synthesized area (paper) vs structural model (ours)");
  t.set_header({"unit", "paper um^2", "model um^2", "ratio"});
  t.add_row({"arbiter (incl. request queue)", "7312.93",
             TextTable::num(arb.total_um2, 2),
             TextTable::num(arb.total_um2 / 7312.93)});
  t.add_row({"hit buffer", "3088.61", TextTable::num(hb.total_um2, 2),
             TextTable::num(hb.total_um2 / 3088.61)});
  t.print(std::cout);

  TextTable b1("arbiter breakdown");
  b1.set_header({"component", "um^2"});
  for (const auto& item : arb.items)
    b1.add_row({item.name, TextTable::num(item.um2, 1)});
  b1.print(std::cout);

  TextTable b2("hit buffer breakdown");
  b2.set_header({"component", "um^2"});
  for (const auto& item : hb.items)
    b2.add_row({item.name, TextTable::num(item.um2, 1)});
  b2.print(std::cout);

  // Scaling study beyond the paper: how the structures grow with depth.
  TextTable sc("scaling: hit buffer depth sweep");
  sc.set_header({"depth", "um^2"});
  for (std::uint32_t depth : {8u, 16u, 32u, 64u, 128u}) {
    ArbConfig a = cfg.arb;
    a.hit_buffer_depth = depth;
    sc.add_row({std::to_string(depth),
                TextTable::num(hit_buffer_area(a).total_um2, 1)});
  }
  sc.print(std::cout);
  return 0;
}
