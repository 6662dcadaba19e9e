// Table 3 (Section 5.8): the five scenarios re-implemented in the Trema
// stand-in (imp) and the Pyretic stand-in (netcore), run through the same
// simulator, workload and backtest acceptance rule as the NDlog versions.
// Every cell's generated count, passed count and accepted repairs (in
// candidate order) are pinned, so any drift in the frontends, their repair
// generators, the simulator or the acceptance rule fails here rather than
// only changing what bench_table3 prints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "langs/table3.h"

namespace mp::langs {
namespace {

struct WantCell {
  std::string scenario;
  bool supported;
  size_t generated;
  size_t passed;
  std::vector<std::string> accepted;
};

void expect_cells(const std::vector<LangCell>& got,
                  const std::vector<WantCell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("cell " + want[i].scenario);
    EXPECT_EQ(got[i].scenario, want[i].scenario);
    EXPECT_EQ(got[i].supported, want[i].supported);
    EXPECT_EQ(got[i].generated, want[i].generated);
    EXPECT_EQ(got[i].passed, want[i].passed);
    EXPECT_EQ(got[i].accepted_descriptions, want[i].accepted);
  }
}

TEST(Table3, TremaCells) {
  expect_cells(
      run_trema_scenarios(),
      {{"Q1", true, 6, 2,
        {"Changing sw == 2 to sw == 3", "Manually installing a flow entry"}},
       {"Q2", true, 6, 3,
        {"Changing pkt.sip < 6 to pkt.sip < 7",
         "Manually installing a flow entry",
         "Changing pkt.sip < 6 to pkt.sip <= 6"}},
       {"Q3", true, 11, 4,
        {"Changing pkt.sip > 3 to pkt.sip > 2",
         "Manually installing a flow entry",
         "Changing pkt.sip > 3 to pkt.sip == 3",
         "Changing pkt.sip > 3 to pkt.sip >= 3"}},
       {"Q4", true, 5, 2,
        {"Manually installing a flow entry",
         "Adding the missing send_packet_out call"}},
       {"Q5", true, 5, 3,
        {"Adding match field sip to install(match=[in_port,dip], out=2) + "
         "packet_out",
         "Adding match field spt to install(match=[in_port,dip], out=2) + "
         "packet_out",
         "Adding match field smc to install(match=[in_port,dip], out=2) + "
         "packet_out"}}});
}

TEST(Table3, PyreticCells) {
  expect_cells(
      run_pyretic_scenarios(),
      {{"Q1", true, 11, 3,
        {"Changing match(switch=2) to =3", "Manually installing a flow entry",
         "Changing match(switch=1) to =3"}},
       {"Q2", true, 13, 1, {"Manually installing a flow entry"}},
       {"Q3", true, 13, 10,
        {"Changing match(switch=2) to =3", "Changing match(sip=4) to =3",
         "Manually installing a flow entry", "Changing match(sip=5) to =3",
         "Changing match(sip=6) to =3",
         "Deleting match(...) restriction at match(sip=2)[fwd(3)]",
         "Deleting match(...) restriction at "
         "match(switch=2)[match(dpt=80)[fwd(1)]]",
         "Deleting match(...) restriction at match(sip=4)[fwd(1)]",
         "Deleting match(...) restriction at match(sip=5)[fwd(1)]",
         "Deleting match(...) restriction at match(sip=6)[fwd(1)]"}},
       // Q4 is not reproducible in Pyretic: its runtime releases buffered
       // packets itself.
       {"Q4", false, 0, 0, {}},
       {"Q5", true, 6, 3,
        {"Matching additionally on sip", "Matching additionally on spt",
         "Matching additionally on smc"}}});
}

}  // namespace
}  // namespace mp::langs
