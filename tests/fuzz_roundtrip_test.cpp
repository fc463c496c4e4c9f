// Randomised round-trip properties.
//
// Seeded generators build random JSON documents and CSV tables; writing
// and re-parsing must reproduce them exactly.  This catches escaping,
// quoting and number-formatting bugs that hand-picked cases miss, while
// staying deterministic (fixed seeds, so failures reproduce).
#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/dataset.h"
#include "json/parse.h"
#include "json/write.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avoc {
namespace {

// --- random JSON ------------------------------------------------------------

json::Value RandomJson(Rng& rng, int depth) {
  const uint64_t kind = rng.UniformInt(depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0:
      return json::Value(nullptr);
    case 1:
      return json::Value(rng.Bernoulli(0.5));
    case 2: {
      // Mix integers, fractions and extreme magnitudes.
      switch (rng.UniformInt(4)) {
        case 0: return json::Value(static_cast<double>(
            static_cast<int64_t>(rng.UniformInt(2000000)) - 1000000));
        case 1: return json::Value(rng.Uniform(-1e6, 1e6));
        case 2: return json::Value(rng.Uniform(-1e-6, 1e-6));
        default: return json::Value(rng.Gaussian(0.0, 1e12));
      }
    }
    case 3: {
      std::string s;
      const size_t length = rng.UniformInt(20);
      for (size_t i = 0; i < length; ++i) {
        // Printable ASCII plus the characters that need escaping.
        static const char kAlphabet[] =
            "abcXYZ 0189_-\"\\\n\t/{}[]:,€é";
        s += kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
      }
      return json::Value(std::move(s));
    }
    case 4: {
      json::Array array;
      const size_t n = rng.UniformInt(5);
      for (size_t i = 0; i < n; ++i) {
        array.push_back(RandomJson(rng, depth - 1));
      }
      return json::Value(std::move(array));
    }
    default: {
      json::Object object;
      const size_t n = rng.UniformInt(5);
      for (size_t i = 0; i < n; ++i) {
        std::string key = StrFormat("k%zu", i);
        key.append(rng.UniformInt(2), '"');
        object.Set(key, RandomJson(rng, depth - 1));
      }
      return json::Value(std::move(object));
    }
  }
}

class JsonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzTest, WriteParseRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const json::Value original = RandomJson(rng, 4);
    const std::string compact = json::Write(original);
    auto reparsed = json::Parse(compact);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\n" << compact;
    EXPECT_EQ(original, *reparsed) << compact;
    const std::string pretty = json::WritePretty(original);
    auto repretty = json::Parse(pretty);
    ASSERT_TRUE(repretty.ok()) << pretty;
    EXPECT_EQ(original, *repretty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- random CSV -------------------------------------------------------------

data::CsvTable RandomCsv(Rng& rng) {
  data::CsvTable table;
  const size_t columns = 1 + rng.UniformInt(6);
  for (size_t c = 0; c < columns; ++c) {
    table.header.push_back("col" + std::to_string(c));
  }
  const size_t rows = rng.UniformInt(20);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < columns; ++c) {
      std::string cell;
      const size_t length = rng.UniformInt(12);
      for (size_t i = 0; i < length; ++i) {
        static const char kAlphabet[] = "ab1 ,\"\n\r;x.-";
        cell += kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
      }
      row.push_back(std::move(cell));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, WriteParseRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const data::CsvTable original = RandomCsv(rng);
    const std::string text = data::WriteCsv(original);
    auto reparsed = data::ParseCsv(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << text;
    EXPECT_EQ(original.header, reparsed->header);
    EXPECT_EQ(original.rows, reparsed->rows) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// --- random round tables through dataset CSV --------------------------------

class DatasetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DatasetFuzzTest, RoundTableCsvRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    const size_t modules = 1 + rng.UniformInt(8);
    data::RoundTable table = data::RoundTable::WithModuleCount(modules);
    const size_t rounds = rng.UniformInt(30);
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<data::Reading> row;
      for (size_t m = 0; m < modules; ++m) {
        if (rng.Bernoulli(0.2)) {
          row.push_back(std::nullopt);
        } else {
          row.emplace_back(rng.Gaussian(0.0, 1e4));
        }
      }
      ASSERT_TRUE(table.AppendRound(std::move(row)).ok());
    }
    auto restored = data::RoundTableFromCsv(data::RoundTableToCsv(table));
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored->round_count(), table.round_count());
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t m = 0; m < modules; ++m) {
        ASSERT_EQ(restored->At(r, m).has_value(),
                  table.At(r, m).has_value());
        if (table.At(r, m).has_value()) {
          EXPECT_DOUBLE_EQ(*restored->At(r, m), *table.At(r, m));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetFuzzTest,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace avoc
