// The streaming face of run_attack_sweep: SweepOptions::on_row plus
// service::OrderedNdjsonWriter must yield byte-identical NDJSON at every
// worker count (this is what `ba_cli sweep --out` and the campaign service
// are built on), and keep_rows=false must preserve the consistency verdict
// while dropping the O(grid) row memory.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"
#include "service/ndjson.h"

namespace ba::lowerbound {
namespace {

std::string streamed_ndjson(unsigned jobs, bool keep_rows,
                            SweepResult* result_out = nullptr) {
  std::string out;
  service::OrderedNdjsonWriter writer(
      [&](std::string_view line) {
        out.append(line);
        out.push_back('\n');
      });
  SweepOptions options;
  options.jobs = jobs;
  options.keep_rows = keep_rows;
  options.on_row = [&](std::size_t index, const SweepRow& row) {
    writer.put(index, encode_sweep_row_ndjson(row));
  };
  const SweepResult result =
      run_attack_sweep(standard_sweep_entries(), standard_sweep_grid(),
                       options);
  EXPECT_TRUE(writer.drained()) << "jobs=" << jobs;
  EXPECT_EQ(writer.emitted(), result.points);
  if (result_out != nullptr) *result_out = result;
  return out;
}

TEST(SweepStreaming, OnRowIsByteIdenticalAcrossWorkerCounts) {
  const std::string serial = streamed_ndjson(1, /*keep_rows=*/true);
  ASSERT_FALSE(serial.empty());
  for (const unsigned jobs : {2u, 4u}) {
    EXPECT_EQ(streamed_ndjson(jobs, /*keep_rows=*/true), serial)
        << "jobs=" << jobs;
  }
}

TEST(SweepStreaming, OnRowMatchesTheKeptRows) {
  SweepResult result;
  const std::string streamed = streamed_ndjson(2, /*keep_rows=*/true, &result);
  ASSERT_EQ(result.rows.size(), result.points);
  std::string from_rows;
  for (const SweepRow& row : result.rows) {
    from_rows += encode_sweep_row_ndjson(row);
    from_rows.push_back('\n');
  }
  EXPECT_EQ(streamed, from_rows);
}

TEST(SweepStreaming, DroppedRowsKeepTheVerdictAndCount) {
  SweepResult kept;
  const std::string with_rows = streamed_ndjson(2, /*keep_rows=*/true, &kept);
  SweepResult dropped;
  const std::string without_rows =
      streamed_ndjson(2, /*keep_rows=*/false, &dropped);
  EXPECT_EQ(without_rows, with_rows);
  EXPECT_TRUE(dropped.rows.empty());
  EXPECT_EQ(dropped.points, kept.points);
  EXPECT_EQ(dropped.theorem2_consistent(), kept.theorem2_consistent());
  EXPECT_TRUE(dropped.theorem2_consistent());
}

SweepOptions crash_axis(unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  options.fault_axis = faults::FaultSpec{};
  options.fault_axis->kind = *faults::find_fault_kind("crash");
  return options;
}

TEST(SweepStreaming, FaultAxisRowsStreamOnceAndWhole) {
  // A point's curve runs are pieces of their own; on_row must still fire
  // once per point, after the last piece, with the whole curve in the row.
  const std::vector<SystemParams> grid = {{12, 11}, {16, 15}};
  std::string serial;
  for (const unsigned jobs : {1u, 8u}) {
    std::string out;
    service::OrderedNdjsonWriter writer([&](std::string_view line) {
      out.append(line);
      out.push_back('\n');
    });
    std::vector<int> calls(standard_sweep_entries().size() * grid.size());
    SweepOptions options = crash_axis(jobs);
    options.keep_rows = false;
    options.on_row = [&](std::size_t index, const SweepRow& row) {
      ASSERT_LT(index, calls.size());
      ++calls[index];
      EXPECT_EQ(row.params, grid[index % grid.size()]);
      ASSERT_EQ(row.fault_curve.size(), row.params.t + 1u);
      for (std::uint32_t f = 0; f <= row.params.t; ++f) {
        EXPECT_EQ(row.fault_curve[f].f, f);
      }
      writer.put(index, encode_sweep_row_ndjson(row));
    };
    const SweepResult result =
        run_attack_sweep(standard_sweep_entries(), grid, options);
    EXPECT_TRUE(result.rows.empty());
    EXPECT_TRUE(result.theorem2_consistent());
    EXPECT_TRUE(writer.drained());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i], 1) << "jobs=" << jobs << " index=" << i;
    }
    if (jobs == 1) {
      serial = out;
    } else {
      EXPECT_EQ(out, serial) << "jobs=" << jobs;
    }
  }
  ASSERT_FALSE(serial.empty());
}

TEST(SweepStreaming, FailingPointThrowsTheSameErrorAtEveryWidth) {
  // make throws at two grid points; whichever fails first on the clock, the
  // sweep reports the lower point, exactly as the serial path does.
  std::vector<SweepEntry> entries = standard_sweep_entries();
  SweepEntry& last = entries.back();
  last.make = [make = last.make](const SystemParams& params) {
    if (params.n != 12) {
      throw std::runtime_error("make failed at n=" + std::to_string(params.n));
    }
    return make(params);
  };
  const std::vector<SystemParams> grid = {{12, 11}, {16, 15}, {20, 19}};
  for (const unsigned jobs : {1u, 8u}) {
    try {
      (void)run_attack_sweep(entries, grid, crash_axis(jobs));
      ADD_FAILURE() << "expected std::runtime_error at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "make failed at n=16") << "jobs=" << jobs;
    }
  }
  // A failed sweep leaves nothing behind: the next one runs clean.
  const std::vector<SystemParams> clean = {{12, 11}};
  EXPECT_EQ(run_attack_sweep(entries, clean, crash_axis(8)).rows,
            run_attack_sweep(entries, clean, crash_axis(1)).rows);
}

TEST(SweepStreaming, EncodedRowsAreSelfDescribing) {
  const auto entries = standard_sweep_entries();
  const std::vector<SystemParams> grid = {{12, 11}};
  const SweepResult result = run_attack_sweep(entries, grid);
  ASSERT_FALSE(result.rows.empty());
  const std::string line = encode_sweep_row_ndjson(result.rows.front());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"protocol\":"), std::string::npos);
  EXPECT_NE(line.find("\"n\":12"), std::string::npos);
  EXPECT_NE(line.find("\"t\":11"), std::string::npos);
  EXPECT_NE(line.find("\"messages\":"), std::string::npos);
  EXPECT_NE(line.find("\"bound\":"), std::string::npos);
  EXPECT_NE(line.find("\"violation\":"), std::string::npos);
}

}  // namespace
}  // namespace ba::lowerbound
