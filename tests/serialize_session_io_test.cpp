// Tests for model serialization, session-log persistence, and the §4.1
// attribute-profile coin-flip trace builder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "flint/device/attribute_profile.h"
#include "flint/device/session_io.h"
#include "flint/ml/model_zoo.h"
#include "flint/ml/serialize.h"
#include "test_helpers.h"

namespace flint {
namespace {

namespace fs = std::filesystem;

// -------------------------------------------------------- ml::serialize

TEST(ModelSerialize, FeedForwardRoundTripPreservesOutputs) {
  util::Rng rng(1);
  ml::FeedForwardConfig cfg;
  cfg.front_end = ml::FrontEnd::kEmbedding;
  cfg.vocab = 30;
  cfg.embed_dim = 6;
  cfg.dense_dim = 4;
  cfg.hidden = {8, 5};
  cfg.heads = 2;
  ml::FeedForwardModel model(cfg);
  model.init(rng);

  auto blob = serialize_model(model);
  auto back = ml::deserialize_model(blob);
  ASSERT_EQ(back->parameter_count(), model.parameter_count());
  EXPECT_EQ(back->get_flat_parameters(), model.get_flat_parameters());
  EXPECT_EQ(back->heads(), 2u);

  std::vector<ml::Example> examples(3);
  for (auto& e : examples) {
    e.dense = {0.1f, -0.2f, 0.3f, 0.4f};
    e.tokens = {1, 5, 7};
  }
  ml::Batch batch = ml::Batch::from_examples(examples, 4);
  EXPECT_TRUE(model.forward(batch) == back->forward(batch));
}

TEST(ModelSerialize, ConvTextRoundTrip) {
  util::Rng rng(2);
  ml::ConvTextConfig cfg;
  cfg.vocab = 40;
  cfg.embed_dim = 6;
  cfg.seq_len = 5;
  cfg.conv_channels = 3;
  cfg.kernel = 2;
  cfg.hidden = {4};
  ml::ConvTextModel model(cfg);
  model.init(rng);
  auto back = ml::deserialize_model(serialize_model(model));
  EXPECT_EQ(back->get_flat_parameters(), model.get_flat_parameters());
}

TEST(ModelSerialize, AllZooModelsRoundTripThroughFiles) {
  auto dir = fs::temp_directory_path() / "flint_model_serialize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(3);
  for (const auto& spec : ml::model_zoo()) {
    auto model = ml::build_zoo_model(spec.id, rng);
    std::string path = (dir / (std::string("model_") + spec.id + ".flmd")).string();
    ml::save_model(path, *model);
    EXPECT_EQ(static_cast<std::size_t>(fs::file_size(path)),
              ml::serialized_model_bytes(*model));
    auto back = ml::load_model(path);
    EXPECT_EQ(back->get_flat_parameters(), model->get_flat_parameters()) << spec.id;
  }
  fs::remove_all(dir);
}

TEST(ModelSerialize, SizeTracksSdkBudget) {
  // Model B must serialize under the paper's 1MB SDK budget; Model E must
  // not (it is a first-party-app model).
  util::Rng rng(4);
  auto b = ml::build_zoo_model('B', rng);
  auto e = ml::build_zoo_model('E', rng);
  EXPECT_LT(ml::serialized_model_bytes(*b), 1'000'000u);
  EXPECT_GT(ml::serialized_model_bytes(*e), 1'000'000u);
}

TEST(ModelSerialize, GarbageRejected) {
  std::vector<char> garbage = {'X', 'Y', 'Z', 'W', 9};
  EXPECT_THROW(ml::deserialize_model(garbage), util::CheckError);
  // Truncated weights.
  util::Rng rng(5);
  auto model = ml::build_zoo_model('A', rng);
  auto blob = serialize_model(*model);
  blob.resize(blob.size() - 16);
  EXPECT_THROW(ml::deserialize_model(blob), util::CheckError);
}

// ------------------------------------------------------- device::session_io

TEST(SessionIo, RoundTripPreservesSessions) {
  auto dir = fs::temp_directory_path() / "flint_session_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(6);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 100;
  cfg.days = 3;
  auto log = device::generate_sessions(cfg, catalog, rng);

  std::string path = (dir / "sessions.csv").string();
  device::write_session_log_csv(path, log);
  auto back = device::read_session_log_csv(path);
  ASSERT_EQ(back.sessions.size(), log.sessions.size());
  for (std::size_t i = 0; i < log.sessions.size(); ++i) {
    EXPECT_EQ(back.sessions[i].client_id, log.sessions[i].client_id);
    EXPECT_EQ(back.sessions[i].device_index, log.sessions[i].device_index);
    EXPECT_NEAR(back.sessions[i].start, log.sessions[i].start, 1e-6);
    EXPECT_NEAR(back.sessions[i].end, log.sessions[i].end, 1e-6);
    EXPECT_EQ(back.sessions[i].wifi, log.sessions[i].wifi);
    EXPECT_NEAR(back.sessions[i].battery_pct, log.sessions[i].battery_pct, 1e-6);
  }
  // Criteria analysis must agree on both copies.
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  EXPECT_NEAR(device::criteria_pass_fraction(log, criteria, catalog),
              device::criteria_pass_fraction(back, criteria, catalog), 1e-9);
  fs::remove_all(dir);
}

/// Read buckets [first, end) of `reader` into a vector laid out by bucket,
/// given every bucket's record count.
std::vector<device::Session> read_buckets(device::SessionChunkReader& reader, std::size_t first,
                                          std::size_t end,
                                          const std::vector<std::uint64_t>& per_bucket) {
  std::vector<std::size_t> slots(end - first);
  std::size_t n = 0;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    slots[k] = n;
    n += per_bucket[first + k];
  }
  std::vector<device::Session> out(n);
  reader.read_until(end, out, slots);
  return out;
}

TEST(SessionIo, BinaryChunkRoundTripIsBitExact) {
  // The spill format under the streaming generator's batched merge: unlike
  // the CSV path there is no decimal formatting, so every field must come
  // back bit-for-bit. The input is sorted by start and the counting pass is
  // stable, so the grouped file reads back in the log's own order.
  auto dir = fs::temp_directory_path() / "flint_session_chunk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(61);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 50;
  cfg.days = 2;
  auto log = device::generate_sessions(cfg, catalog, rng);

  const std::size_t buckets = device::spill_buckets(cfg.days * device::kSecondsPerDay);
  ASSERT_EQ(buckets, 2u * 1440u);
  std::vector<std::uint64_t> totals(buckets, 0);
  std::string path = (dir / "chunk.bin").string();
  device::write_session_chunk(path, log.sessions, totals);
  std::vector<std::uint64_t> expect_totals(buckets, 0);
  for (const auto& s : log.sessions) ++expect_totals[device::spill_bucket(s.start, buckets)];
  EXPECT_EQ(totals, expect_totals);

  device::SessionChunkReader reader(path);
  EXPECT_EQ(reader.count(), log.sessions.size());
  EXPECT_EQ(reader.buckets(), buckets);
  std::vector<device::Session> back;
  std::size_t first = 0;
  for (std::size_t end : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{7},
                          std::size_t{1000}, std::size_t{1001}, buckets}) {
    auto range = read_buckets(reader, first, end, expect_totals);  // uneven and empty ranges
    back.insert(back.end(), range.begin(), range.end());
    first = end;
  }
  ASSERT_EQ(back.size(), log.sessions.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].client_id, log.sessions[i].client_id);
    EXPECT_EQ(back[i].device_index, log.sessions[i].device_index);
    EXPECT_EQ(back[i].start, log.sessions[i].start);
    EXPECT_EQ(back[i].end, log.sessions[i].end);
    EXPECT_EQ(back[i].wifi, log.sessions[i].wifi);
    EXPECT_EQ(back[i].battery_pct, log.sessions[i].battery_pct);
    EXPECT_EQ(back[i].foreground, log.sessions[i].foreground);
  }
  std::vector<std::size_t> slots(buckets + 1, 0);
  EXPECT_THROW(reader.read_until(buckets - 1, back, slots), util::CheckError);  // backwards
  EXPECT_THROW(reader.read_until(buckets + 1, back, slots), util::CheckError);  // past the table
  fs::remove_all(dir);
}

/// A four-session, three-bucket chunk: buckets hold 2, 0 and 2 records.
std::string write_small_chunk(const fs::path& dir, const std::string& name) {
  std::vector<device::Session> sessions(4);
  const double starts[] = {0.0, 30.0, 120.0, 150.0};
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].client_id = i;
    sessions[i].start = starts[i];
    sessions[i].end = starts[i] + 5.0;
  }
  std::vector<std::uint64_t> totals(3, 0);
  std::string path = (dir / name).string();
  device::write_session_chunk(path, sessions, totals);
  return path;
}

/// Overwrite the u64 at byte `pos` of a chunk file. Header: magic at 0,
/// count at 8, bucket count at 16; offset[b] at 24 + 8 * b.
void patch_u64(const std::string& path, std::streamoff pos, std::uint64_t v) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(pos);
  f.write(reinterpret_cast<const char*>(&v), 8);
}

TEST(SessionIo, BinaryChunkRejectsBadHeaderAndTruncation) {
  auto dir = fs::temp_directory_path() / "flint_session_chunk_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string garbage = (dir / "garbage.bin").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a session chunk";
  }
  EXPECT_THROW(device::SessionChunkReader{garbage}, util::CheckError);
  EXPECT_THROW(device::SessionChunkReader{(dir / "missing.bin").string()}, util::CheckError);

  // A record payload cut short is caught by the size check at open...
  std::string truncated = write_small_chunk(dir, "truncated.bin");
  fs::resize_file(truncated, fs::file_size(truncated) - 10);
  EXPECT_THROW(device::SessionChunkReader{truncated}, util::CheckError);

  // ...and, if the file shrinks after it was opened, by the byte accounting
  // of the range read, never returned as silently-zeroed sessions.
  const std::vector<std::uint64_t> per_bucket = {2, 0, 2};
  std::string shrinks = write_small_chunk(dir, "shrinks.bin");
  device::SessionChunkReader reader(shrinks);
  EXPECT_EQ(read_buckets(reader, 0, 1, per_bucket).size(), 2u);
  fs::resize_file(shrinks, fs::file_size(shrinks) - 10);
  EXPECT_THROW(read_buckets(reader, 1, 3, per_bucket), util::CheckError);

  // A batch laid out for fewer records than the chunk holds is refused at
  // the first record that would land past its end, never written there.
  device::SessionChunkReader overfill(write_small_chunk(dir, "overfill.bin"));
  std::vector<device::Session> small(3);
  std::vector<std::size_t> slots = {0, 2, 2};
  EXPECT_THROW(overfill.read_until(3, small, slots), util::CheckError);
  std::vector<std::size_t> too_few_slots = {0, 2};
  device::SessionChunkReader short_slots(write_small_chunk(dir, "short_slots.bin"));
  EXPECT_THROW(short_slots.read_until(3, small, too_few_slots), util::CheckError);
  fs::remove_all(dir);
}

TEST(SessionIo, BinaryChunkCorruptionMatrix) {
  // Every corruption of the bucketed layout must throw CheckError from the
  // reader's constructor, before any record is read or any size trusted.
  auto dir = fs::temp_directory_path() / "flint_session_chunk_matrix";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t huge = std::uint64_t{1} << 62;
  struct Case {
    const char* name;
    std::streamoff pos;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"bad magic", 0, 0x0123456789ABCDEFull},
      {"header count above offset-table total", 8, 5},
      {"header count below offset-table total", 8, 3},
      {"bucket count past EOF", 16, huge},
      {"bucket count zero", 16, 0},
      {"first offset not zero", 24, 1},
      {"non-monotone offsets", 24 + 8, 3},  // 0, 3, 2, 4
      {"offset-table total disagrees with count", 24 + 3 * 8, 3},
  };
  for (const auto& c : cases) {
    std::string path = write_small_chunk(dir, "case.bin");
    ASSERT_NO_THROW(device::SessionChunkReader{path});
    patch_u64(path, c.pos, c.value);
    EXPECT_THROW(device::SessionChunkReader{path}, util::CheckError) << c.name;
  }

  // An offset past EOF: count and the last offset agree, but the records
  // they claim run beyond the end of the file (including a count whose byte
  // size would overflow 64 bits).
  for (std::uint64_t count : {std::uint64_t{5}, std::uint64_t{1000}, huge}) {
    std::string path = write_small_chunk(dir, "past_eof.bin");
    patch_u64(path, 8, count);
    patch_u64(path, 24 + 3 * 8, count);
    EXPECT_THROW(device::SessionChunkReader{path}, util::CheckError) << "count " << count;
  }

  // Trailing bytes after the last record are corruption too.
  std::string trailing = write_small_chunk(dir, "trailing.bin");
  {
    std::ofstream out(trailing, std::ios::binary | std::ios::app);
    out << "x";
  }
  EXPECT_THROW(device::SessionChunkReader{trailing}, util::CheckError);
  fs::remove_all(dir);
}

TEST(SessionIo, RejectsBadFiles) {
  auto dir = fs::temp_directory_path() / "flint_session_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string path = (dir / "bad.csv").string();
  {
    std::ofstream out(path);
    out << "not,a,session,log\n";
  }
  EXPECT_THROW(device::read_session_log_csv(path), util::CheckError);
  EXPECT_THROW(device::read_session_log_csv((dir / "missing.csv").string()),
               util::CheckError);
  fs::remove_all(dir);
}

// --------------------------------------------------- device::AttributeProfile

TEST(AttributeProfile, EstimatesMarginalsFromLog) {
  util::Rng rng(7);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 1200;
  cfg.days = 7;
  cfg.wifi_probability = 0.70;
  cfg.high_battery_probability = 0.34;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);
  // The generator's attributes are time-independent, so every hour's
  // estimate should hover near the marginals.
  double wifi_sum = 0.0, battery_sum = 0.0;
  for (int h = 0; h < 24; ++h) {
    wifi_sum += profile.wifi_probability_at(h * 3600.0);
    battery_sum += profile.battery_probability_at(h * 3600.0);
  }
  EXPECT_NEAR(wifi_sum / 24.0, 0.70, 0.06);
  EXPECT_NEAR(battery_sum / 24.0, 0.34, 0.06);
  EXPECT_NEAR(profile.eligibility_probability_at(0.0),
              profile.wifi_probability_at(0.0) * profile.battery_probability_at(0.0), 1e-12);
}

TEST(AttributeProfile, CoinflipTraceMatchesDirectFiltering) {
  // The §4.1 weighted coin-flip applied to attribute-free sessions should
  // keep approximately the same fraction as direct attribute filtering.
  util::Rng rng(8);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 1500;
  cfg.days = 7;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 80.0;
  auto direct = device::build_availability(log, criteria, catalog);
  util::Rng flip_rng(9);
  auto flipped =
      device::build_availability_by_coinflip(log, profile, criteria, catalog, flip_rng);

  double direct_frac =
      static_cast<double>(direct.window_count()) / static_cast<double>(log.sessions.size());
  double flipped_frac =
      static_cast<double>(flipped.window_count()) / static_cast<double>(log.sessions.size());
  EXPECT_NEAR(flipped_frac, direct_frac, 0.03);
}

TEST(AttributeProfile, HardCriteriaStillApply) {
  util::Rng rng(10);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 300;
  cfg.days = 2;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);
  device::AvailabilityCriteria criteria;
  criteria.min_os_release = 999912;  // impossible: nothing passes
  util::Rng flip_rng(11);
  auto trace =
      device::build_availability_by_coinflip(log, profile, criteria, catalog, flip_rng);
  EXPECT_EQ(trace.window_count(), 0u);
}

}  // namespace
}  // namespace flint
