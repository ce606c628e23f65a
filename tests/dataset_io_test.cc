// The dataset/format suite (`dataset` ctest label): the CRC-32 kernel
// against a bit-at-a-time reference, a golden RPMD file written by an
// earlier build, RPMD writer/reader round-trips in both length modes,
// byte-level corruption and truncation rejection (every flipped byte
// must surface as DatasetFormatError, never as silent misreads or
// crashes — the mmap/parse surface runs under ASan+UBSan via
// scripts/tsan_check.sh), streaming generation
// determinism, sampling primitives, and the archive-scale training
// guarantees of docs/DATASETS.md: mmap-backed training is bit-identical
// to in-memory training, and sampled candidate discovery is bit-identical
// to full discovery whenever the caps don't bind.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/rpm.h"
#include "core/sampling.h"
#include "ts/dataset_io.h"
#include "ts/generators.h"
#include "ts/parallel.h"
#include "ts/ucr_io.h"

namespace rpm {
namespace {

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem;
}

std::vector<unsigned char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

ts::Dataset VariableLengthDataset() {
  ts::Dataset data;
  std::uint64_t state = 99;
  for (std::size_t i = 0; i < 23; ++i) {
    ts::Series s(7 + (i * 5) % 40);
    for (auto& v : s) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<double>(static_cast<std::int64_t>(state >> 16)) / 1e12;
    }
    data.Add(static_cast<int>(i % 3) - 1, std::move(s));  // labels -1,0,1
  }
  return data;
}

// Six series of lengths 10-15, labels 0/1, written three per chunk: the
// byte-flip sweep's file and the golden file's content. Its CRC scopes
// fall on both sides of Crc32's 64-byte fold threshold: header 36 bytes,
// tables 48, directory 80, payloads 264 and 336.
ts::Dataset SmallVariableLengthDataset() {
  ts::Dataset small;
  std::uint64_t state = 7;
  for (std::size_t i = 0; i < 6; ++i) {
    ts::Series s(10 + i);
    for (auto& v : s) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<double>(static_cast<std::int64_t>(state >> 16)) / 1e12;
    }
    small.Add(static_cast<int>(i % 2), std::move(s));
  }
  return small;
}

ts::DatasetWriterOptions SmallVariableLengthOptions() {
  ts::DatasetWriterOptions options;
  options.chunk_series = 3;
  return options;
}

// Bit-at-a-time CRC-32 (reflected polynomial 0xEDB88320, no table): the
// definition every path of ts::Crc32 must reproduce, sharing no code or
// table with it.
std::uint32_t Crc32Bitwise(const unsigned char* p, std::size_t bytes,
                           std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(std::size_t n, std::uint64_t state) {
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

void ExpectSameDataset(const ts::Dataset& a, const ts::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "i=" << i;
    ASSERT_EQ(a[i].values.size(), b[i].values.size()) << "i=" << i;
    EXPECT_EQ(a[i].values, b[i].values) << "i=" << i;  // bit-exact
  }
}

// First in this binary, and alone in its process under ctest, so these
// are the process's first Crc32 calls: they must not race on the table
// or on the run-time choice of the folding kernel, which the 4 KiB input
// takes and the 9-byte one does not. Half the threads start with each.
TEST(DatasetIo, Crc32ConcurrentFirstCallsAgree) {
  const std::vector<unsigned char> big = RandomBytes(4096, 3);
  const std::uint32_t big_expected = Crc32Bitwise(big.data(), big.size());
  std::atomic<bool> go{false};
  std::vector<std::uint32_t> small_crcs(8, 0);
  std::vector<std::uint32_t> big_crcs(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < small_crcs.size(); ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      if (t % 2 == 0) big_crcs[t] = ts::Crc32(big.data(), big.size());
      small_crcs[t] = ts::Crc32("123456789", 9);
      if (t % 2 == 1) big_crcs[t] = ts::Crc32(big.data(), big.size());
    });
  }
  go.store(true);
  for (auto& thread : threads) thread.join();
  for (const std::uint32_t crc : small_crcs) EXPECT_EQ(crc, 0xCBF43926u);
  for (const std::uint32_t crc : big_crcs) EXPECT_EQ(crc, big_expected);
}

TEST(DatasetIo, Crc32MatchesBitwiseReference) {
  EXPECT_EQ(ts::Crc32("123456789", 9), 0xCBF43926u);

  // Every length 0-300 at every start offset 0-15: both sides of the
  // 64-byte fold threshold and all 16 tail sizes. Each input sits at the
  // very end of its own allocation, so a load past it trips ASan.
  const std::vector<unsigned char> source = RandomBytes(316, 11);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::vector<unsigned char> buf(source.begin(),
                                           source.begin() + offset + len);
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(ts::Crc32(p, len), Crc32Bitwise(p, len))
          << "offset " << offset << " length " << len;
    }
  }

  // Seed chaining: any split of the input gives the one-shot value.
  const std::vector<unsigned char> chain = RandomBytes(1000, 12);
  const std::uint32_t whole = Crc32Bitwise(chain.data(), chain.size());
  ASSERT_EQ(ts::Crc32(chain.data(), chain.size()), whole);
  for (const std::size_t k : {0, 1, 15, 16, 17, 63, 64, 65, 100, 127, 128,
                              129, 500, 935, 936, 937, 984, 999, 1000}) {
    EXPECT_EQ(ts::Crc32(chain.data() + k, chain.size() - k,
                        ts::Crc32(chain.data(), k)),
              whole)
        << "split at " << k;
  }

  // One archive-sized chunk (4 MiB) at an odd offset.
  const std::size_t chunk = std::size_t{4} << 20;
  const std::vector<unsigned char> big = RandomBytes(chunk + 3, 13);
  EXPECT_EQ(ts::Crc32(big.data() + 3, chunk),
            Crc32Bitwise(big.data() + 3, chunk));
}

TEST(DatasetIo, VariableLengthRoundTrip) {
  const std::string path = TempPath("var_roundtrip.rpmd");
  const ts::Dataset data = VariableLengthDataset();
  ts::DatasetWriterOptions options;
  options.chunk_series = 5;  // force several chunks
  ts::WriteDatasetFile(data, path, options);

  const ts::DatasetReader reader(path);
  EXPECT_EQ(reader.size(), data.size());
  EXPECT_GT(reader.num_chunks(), 1u);
  EXPECT_EQ(reader.fixed_length(), 0u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(reader.label(i), data[i].label);
    ASSERT_EQ(reader.length(i), data[i].values.size());
    const ts::SeriesView v = reader.values(i);
    EXPECT_EQ(ts::Series(v.begin(), v.end()), data[i].values);
  }
  ExpectSameDataset(reader.ReadAll(), data);
  ExpectSameDataset(ts::ReadDatasetFile(path), data);
  std::remove(path.c_str());
}

TEST(DatasetIo, FixedLengthRoundTripAndAlignment) {
  const std::string path = TempPath("fixed_roundtrip.rpmd");
  const ts::Dataset data = ts::MakeCbf(6, 0, 64, 11).train;
  ts::DatasetWriterOptions options;
  options.fixed_length = 64;
  options.chunk_series = 4;
  ts::WriteDatasetFile(data, path, options);

  const ts::DatasetReader reader(path);
  EXPECT_EQ(reader.fixed_length(), 64u);
  for (std::size_t i = 0; i < reader.size(); ++i) {
    const ts::SeriesView v = reader.values(i);
    // Zero-copy contract: views point straight into the 8-byte-aligned
    // mapping.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  alignof(double),
              0u);
  }
  ExpectSameDataset(reader.ReadAll(), data);
  std::remove(path.c_str());
}

TEST(DatasetIo, WriterRejectsBadAppends) {
  const std::string path = TempPath("writer_errors.rpmd");
  ts::DatasetWriterOptions options;
  options.fixed_length = 8;
  ts::DatasetWriter writer(path, options);
  EXPECT_THROW(writer.Append(1, ts::Series{}), ts::DatasetFormatError);
  EXPECT_THROW(writer.Append(1, ts::Series(9, 0.0)),
               ts::DatasetFormatError);
  writer.Append(1, ts::Series(8, 0.5));
  writer.Finish();
  EXPECT_THROW(writer.Append(1, ts::Series(8, 0.5)),
               ts::DatasetFormatError);
  std::remove(path.c_str());
}

TEST(DatasetIo, UcrTextRoundTrip) {
  const std::string rpmd = TempPath("ucr_roundtrip.rpmd");
  const ts::Dataset data = ts::MakeItalyPower(5, 0, 24, 3).train;
  ts::WriteDatasetFile(data, rpmd);
  // binary -> text -> parse -> binary -> read: labels survive exactly;
  // values survive through the UCR decimal formatting.
  const ts::Dataset text_side =
      ts::ParseUcr(ts::FormatUcr(ts::ReadDatasetFile(rpmd)));
  ASSERT_EQ(text_side.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(text_side[i].label, data[i].label);
    ASSERT_EQ(text_side[i].values.size(), data[i].values.size());
    for (std::size_t j = 0; j < data[i].values.size(); ++j) {
      EXPECT_NEAR(text_side[i].values[j], data[i].values[j], 1e-9);
    }
  }
  std::remove(rpmd.c_str());
}

TEST(DatasetIo, RejectsBadMagicAndVersion) {
  const std::string path = TempPath("bad_magic.rpmd");
  ts::WriteDatasetFile(VariableLengthDataset(), path);
  std::vector<unsigned char> bytes = Slurp(path);

  std::vector<unsigned char> bad = bytes;
  bad[0] = 'X';
  Spit(path, bad);
  EXPECT_THROW(ts::DatasetReader{path}, ts::DatasetFormatError);

  // Future version with a correct header CRC: the version check itself
  // must fire (the file may be valid for a later reader).
  bad = bytes;
  bad[4] = 0x7F;
  const std::uint32_t crc = ts::Crc32(bad.data(), 36);
  std::memcpy(bad.data() + 36, &crc, sizeof(crc));
  Spit(path, bad);
  try {
    ts::DatasetReader reader(path);
    FAIL() << "version 0x7F accepted";
  } catch (const ts::DatasetFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, RejectsTruncation) {
  const std::string path = TempPath("truncated.rpmd");
  ts::WriteDatasetFile(VariableLengthDataset(), path);
  const std::vector<unsigned char> bytes = Slurp(path);
  // Every strict prefix must be rejected (checked at coarse stride plus
  // the boundaries around the header).
  for (std::size_t keep = 0; keep < bytes.size();
       keep += (keep < 48 ? 1 : 97)) {
    Spit(path, std::vector<unsigned char>(bytes.begin(),
                                          bytes.begin() + keep));
    EXPECT_THROW(ts::DatasetReader{path}, ts::DatasetFormatError)
        << "kept " << keep << " of " << bytes.size();
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, EveryByteFlipIsDetected) {
  const std::string path = TempPath("bitflip.rpmd");
  ts::WriteDatasetFile(SmallVariableLengthDataset(), path,
                       SmallVariableLengthOptions());
  const std::vector<unsigned char> bytes = Slurp(path);

  ts::DatasetReaderOptions eager;
  eager.eager_verify = true;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<unsigned char> bad = bytes;
    bad[i] ^= 0xFF;
    Spit(path, bad);
    EXPECT_THROW(ts::DatasetReader(path, eager), ts::DatasetFormatError)
        << "byte " << i << " of " << bytes.size();
  }
  std::remove(path.c_str());
}

// tests/data/rpmd_v1_golden.rpmd was written before Crc32 gained its
// folding kernel and is never regenerated: a kernel that changed any CRC
// value would fail to open it, and a writer that changed any byte would
// fail to reproduce it.
TEST(DatasetIo, GoldenV1FileLoadsAndRewritesIdentically) {
  const std::string golden =
      std::string(RPM_TEST_DATA_DIR) + "/rpmd_v1_golden.rpmd";
  ts::DatasetReaderOptions eager;
  eager.eager_verify = true;
  const ts::DatasetReader reader(golden, eager);
  EXPECT_EQ(reader.num_chunks(), 2u);
  const ts::Dataset loaded = reader.ReadAll();
  const ts::Dataset expected = SmallVariableLengthDataset();
  ASSERT_EQ(loaded.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(loaded[i].label, expected[i].label) << "i=" << i;
    ASSERT_EQ(loaded[i].values.size(), expected[i].values.size());
    EXPECT_EQ(std::memcmp(loaded[i].values.data(), expected[i].values.data(),
                          expected[i].values.size() * sizeof(double)),
              0)
        << "i=" << i;
  }

  const std::string path = TempPath("golden_rewrite.rpmd");
  ts::WriteDatasetFile(loaded, path, SmallVariableLengthOptions());
  EXPECT_EQ(Slurp(path), Slurp(golden));
  std::remove(path.c_str());
}

TEST(DatasetIo, LazyDataCrcFiresOnFirstAccess) {
  const std::string path = TempPath("lazy_crc.rpmd");
  const ts::Dataset data = ts::MakeCbf(4, 0, 32, 5).train;
  ts::WriteDatasetFile(data, path);
  std::vector<unsigned char> bytes = Slurp(path);
  // Flip one payload byte in the last chunk's values: default (lazy)
  // verification must open fine, serve the label column, and throw only
  // when the damaged chunk's values are first touched.
  bytes[bytes.size() / 2] ^= 0x01;
  Spit(path, bytes);
  const ts::DatasetReader reader(path);
  EXPECT_EQ(reader.size(), data.size());
  EXPECT_NO_THROW(reader.ClassHistogram());
  bool threw = false;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    try {
      (void)reader.values(i);
    } catch (const ts::DatasetFormatError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  std::remove(path.c_str());
}

TEST(DatasetIo, GenerateToFileIsByteDeterministic) {
  const std::string a = TempPath("gen_a.rpmd");
  const std::string b = TempPath("gen_b.rpmd");
  ts::ArchiveOptions options;
  options.num_series = 1000;
  options.length = 32;
  options.seed = 42;
  options.batch_per_class = 64;  // several rounds
  EXPECT_EQ(ts::GenerateToFile("TwoPatterns", options, a), 1000u);
  EXPECT_EQ(ts::GenerateToFile("TwoPatterns", options, b), 1000u);
  EXPECT_EQ(Slurp(a), Slurp(b));

  // The interleaved emission keeps every prefix class-balanced.
  const ts::DatasetReader reader(a);
  for (const auto& [label, count] : reader.ClassHistogram()) {
    EXPECT_NEAR(static_cast<double>(count), 250.0, 1.0) << label;
  }
  EXPECT_THROW(ts::GenerateToFile("NoSuchFamily", options, b),
               std::invalid_argument);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(DatasetIo, ConcurrentReadsMatchSequential) {
  const std::string path = TempPath("concurrent.rpmd");
  ts::ArchiveOptions options;
  options.num_series = 600;
  options.length = 48;
  options.seed = 9;
  ts::GenerateToFile("CBF", options, path);
  const ts::DatasetReader reader(path);
  const ts::Dataset all = reader.ReadAll();
  // Hammer values() from the pool: the lazy per-chunk CRC check races
  // benignly (TSan runs this under ctest -L dataset).
  std::vector<int> ok(reader.size(), 0);
  ts::ParallelFor(reader.size(), 8, [&](std::size_t i) {
    const ts::SeriesView v = reader.values(i);
    ok[i] = ts::Series(v.begin(), v.end()) == all[i].values ? 1 : 0;
  });
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_EQ(ok[i], 1);
  std::remove(path.c_str());
}

TEST(Sampling, ReservoirContract) {
  // Identity at or above the population, sorted, deterministic.
  const auto all = core::ReservoirSample(10, 10, 1);
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(core::ReservoirSample(10, 0, 1), all);
  EXPECT_EQ(core::ReservoirSample(10, 99, 1), all);

  const auto a = core::ReservoirSample(1000, 50, 7);
  const auto b = core::ReservoirSample(1000, 50, 7);
  const auto c = core::ReservoirSample(1000, 50, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1], a[i]);  // sorted, unique
  }
  EXPECT_LT(a.back(), 1000u);
}

TEST(Sampling, StratifiedRespectsClassesAndCaps) {
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) labels.push_back(i % 3 == 0 ? 5 : i % 3);
  const auto picked = core::StratifiedSample(labels, 20, 99);
  ASSERT_EQ(picked.size(), 60u);
  std::map<int, std::size_t> per_class;
  for (std::size_t i = 1; i < picked.size(); ++i) {
    EXPECT_LT(picked[i - 1], picked[i]);
  }
  for (std::size_t idx : picked) ++per_class[labels[idx]];
  EXPECT_EQ(per_class[5], 20u);
  EXPECT_EQ(per_class[1], 20u);
  EXPECT_EQ(per_class[2], 20u);

  // No binding cap: the identity, in order.
  const auto everything = core::StratifiedSample(labels, 0, 99);
  ASSERT_EQ(everything.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(everything[i], i);
  }
  // Per-class substreams: adding a class elsewhere must not change what
  // class 1 receives.
  std::vector<int> labels2 = labels;
  for (int i = 0; i < 50; ++i) labels2.push_back(77);
  const auto picked2 = core::StratifiedSample(labels2, 20, 99);
  std::vector<std::size_t> ones_a;
  std::vector<std::size_t> ones_b;
  for (std::size_t idx : picked) {
    if (labels[idx] == 1) ones_a.push_back(idx);
  }
  for (std::size_t idx : picked2) {
    if (labels2[idx] == 1) ones_b.push_back(idx);
  }
  EXPECT_EQ(ones_a, ones_b);
}

// --- Archive-scale training guarantees (docs/DATASETS.md) ---

void ExpectSameModel(const core::RpmClassifier& a,
                     const core::RpmClassifier& b,
                     const ts::Dataset& probe) {
  ASSERT_EQ(a.patterns().size(), b.patterns().size());
  for (std::size_t i = 0; i < a.patterns().size(); ++i) {
    EXPECT_EQ(a.patterns()[i].class_label, b.patterns()[i].class_label);
    EXPECT_EQ(a.patterns()[i].values, b.patterns()[i].values);  // bit-exact
  }
  EXPECT_EQ(a.ClassifyAll(probe), b.ClassifyAll(probe));
}

core::RpmOptions FastFixedOptions() {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 24;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.seed = 6021;
  return opt;
}

TEST(ArchiveTraining, MmapMatchesInMemoryBitForBit) {
  const ts::DatasetSplit split = ts::MakeCbf(10, 5, 64, 77);
  const std::string path = TempPath("train_equiv.rpmd");
  ts::WriteDatasetFile(split.train, path);
  const ts::DatasetReader reader(path);

  core::RpmClassifier mem(FastFixedOptions());
  mem.Train(split.train);
  core::RpmClassifier disk(FastFixedOptions());
  disk.Train(reader);  // no caps: materializes everything, in order
  ExpectSameModel(mem, disk, split.test);
  std::remove(path.c_str());
}

TEST(ArchiveTraining, NonBindingCapsAreExact) {
  // Caps at/above every class size must leave training bit-identical —
  // the sampled-vs-full exactness guarantee, across two suites.
  const std::string path = TempPath("exactness.rpmd");
  for (const auto& split :
       {ts::MakeCbf(8, 4, 64, 13), ts::MakeItalyPower(9, 4, 24, 29)}) {
    ts::WriteDatasetFile(split.train, path);
    const ts::DatasetReader reader(path);

    core::RpmClassifier full(FastFixedOptions());
    full.Train(split.train);

    core::RpmOptions sampled_options = FastFixedOptions();
    sampled_options.discovery_sample_per_class = 1000;  // >= class sizes
    core::RpmClassifier sampled(sampled_options);
    core::TrainFromDiskOptions disk;
    disk.max_train_per_class = 1000;
    sampled.Train(reader, disk);
    ExpectSameModel(full, sampled, split.test);
  }
  std::remove(path.c_str());
}

TEST(ArchiveTraining, BindingCapsAreDeterministicAndBounded) {
  const std::string path = TempPath("capped.rpmd");
  ts::ArchiveOptions gen;
  gen.num_series = 900;
  gen.length = 64;
  gen.seed = 31;
  ts::GenerateToFile("CBF", gen, path);
  const ts::DatasetReader reader(path);

  core::RpmOptions opt = FastFixedOptions();
  opt.discovery_sample_per_class = 6;
  core::TrainFromDiskOptions disk;
  disk.max_train_per_class = 12;

  core::RpmClassifier a(opt);
  a.Train(reader, disk);
  core::RpmClassifier b(opt);
  b.Train(reader, disk);
  // Same seed, same archive: the sampled model reproduces exactly.
  const ts::Dataset probe = ts::MakeCbf(0, 5, 64, 32).test;
  ExpectSameModel(a, b, probe);
  EXPECT_TRUE(a.trained());
  std::remove(path.c_str());
}

TEST(ArchiveTraining, DiscoverySamplingCapsTheConcatenation) {
  // With a binding cap the per-class discovery concatenation shrinks to
  // cap instances — the sub-linear-growth mechanism of the scaling
  // bench.
  const ts::Dataset train = ts::MakeCbf(30, 0, 48, 3).train;
  core::RpmOptions opt = FastFixedOptions();
  opt.discovery_sample_per_class = 5;
  const auto capped =
      core::FindClassCandidates(train, 1, opt.fixed_sax, opt);
  opt.discovery_sample_per_class = 0;
  const auto full = core::FindClassCandidates(train, 1, opt.fixed_sax, opt);
  // Frequency floors scale with the (smaller) sampled instance count, so
  // the capped run still produces candidates, from 5 instances only.
  for (const auto& c : capped) {
    EXPECT_LE(c.instance_coverage, 5u);
  }
  EXPECT_FALSE(full.empty());
}

}  // namespace
}  // namespace rpm
