/// Serialization utilities: CRC-32 against published vectors, the aligned
/// binary writer's layout contract, and MappedFile's mmap RAII.

#include "util/serial.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace tpa {
namespace {

class SerialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/serial_test_" +
            std::to_string(getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST(Crc32Test, MatchesPublishedVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, ChainsAcrossCalls) {
  const uint32_t whole = Crc32("123456789", 9);
  uint32_t chained = Crc32("1234", 4);
  chained = Crc32("56789", 5, chained);
  EXPECT_EQ(chained, whole);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(257, 0xA5);
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 64) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "flip at " << i;
    data[i] ^= 0x01;
  }
}

TEST_F(SerialTest, WriterTracksOffsetAndAligns) {
  auto writer = BinaryFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer->offset(), 0u);
  ASSERT_TRUE(writer->WriteBytes("abc", 3).ok());
  EXPECT_EQ(writer->offset(), 3u);
  ASSERT_TRUE(writer->AlignTo(64).ok());
  EXPECT_EQ(writer->offset(), 64u);
  // Already aligned: a second AlignTo is a no-op.
  ASSERT_TRUE(writer->AlignTo(64).ok());
  EXPECT_EQ(writer->offset(), 64u);
  ASSERT_TRUE(writer->WriteBytes("z", 1).ok());
  ASSERT_TRUE(writer->AlignTo(8).ok());
  EXPECT_EQ(writer->offset(), 72u);
  ASSERT_TRUE(writer->Close().ok());

  // The padding is zero bytes and the payload lands where offset() said.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), 72u);
  EXPECT_EQ(bytes[0], 'a');
  EXPECT_EQ(bytes[2], 'c');
  for (size_t i = 3; i < 64; ++i) EXPECT_EQ(bytes[i], 0) << "pad at " << i;
  EXPECT_EQ(bytes[64], 'z');
}

TEST_F(SerialTest, WriterRejectsUseAfterClose) {
  auto writer = BinaryFileWriter::Create(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->WriteBytes("x", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Close().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerialTest, MappedFileRoundTrips) {
  {
    auto writer = BinaryFileWriter::Create(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteBytes("hello mmap", 10).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file->size(), 10u);
  EXPECT_EQ(std::memcmp(file->data(), "hello mmap", 10), 0);
}

TEST_F(SerialTest, MappedFileMoveTransfersOwnership) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "abc";
  }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  MappedFile moved = std::move(*file);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(std::memcmp(moved.data(), "abc", 3), 0);
}

TEST_F(SerialTest, MappedFileHandlesEmptyFile) {
  { std::ofstream out(path_, std::ios::binary); }
  auto file = MappedFile::Open(path_);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
}

TEST_F(SerialTest, MappedFileMissingFileIsAnError) {
  auto file = MappedFile::Open(path_ + ".does-not-exist");
  EXPECT_FALSE(file.ok());
}

TEST_F(SerialTest, WritableMappingPersistsThroughSync) {
  {
    auto file = MappedFile::Create(path_, 4096);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->writable());
    ASSERT_NE(file->mutable_data(), nullptr);
    std::memcpy(file->mutable_data(), "written in place", 16);
    file->mutable_data()[4095] = 0x7F;
    ASSERT_TRUE(file->Sync().ok());
  }
  auto readback = MappedFile::Open(path_);
  ASSERT_TRUE(readback.ok());
  ASSERT_EQ(readback->size(), 4096u);
  EXPECT_EQ(std::memcmp(readback->data(), "written in place", 16), 0);
  EXPECT_EQ(readback->data()[4095], 0x7F);
  // A read-only mapping exposes no writable view and refuses Sync.
  EXPECT_FALSE(readback->writable());
  EXPECT_EQ(readback->mutable_data(), nullptr);
  EXPECT_EQ(readback->Sync().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerialTest, CreateRequiresPositiveSize) {
  EXPECT_FALSE(MappedFile::Create(path_, 0).ok());
}

TEST_F(SerialTest, AdviseIsAcceptedOnEveryHint) {
  auto file = MappedFile::Create(path_, 1 << 16);
  ASSERT_TRUE(file.ok());
  for (MappedAdvice advice :
       {MappedAdvice::kNormal, MappedAdvice::kSequential, MappedAdvice::kRandom,
        MappedAdvice::kWillNeed, MappedAdvice::kDontNeed}) {
    EXPECT_TRUE(file->Advise(advice).ok());
  }
  // Sub-range advice with an unaligned offset is aligned down internally.
  EXPECT_TRUE(file->Advise(MappedAdvice::kDontNeed, 100, 8000).ok());
}

class ExternalSortTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/extsort_" +
            std::to_string(getpid()) + ".spill";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Pushes `records` through a sorter with the given chunk capacity and
  /// checks the merged stream equals std::sort of the same records
  /// (duplicates preserved).
  void RoundTrip(std::vector<uint64_t> records, size_t chunk_records,
                 size_t expected_chunks, size_t merge_buffer_records = 4) {
    ExternalU64Sorter::Options options;
    options.spill_path = path_;
    options.chunk_records = chunk_records;
    options.merge_buffer_records = merge_buffer_records;
    auto sorter = ExternalU64Sorter::Create(options);
    ASSERT_TRUE(sorter.ok());
    for (uint64_t r : records) ASSERT_TRUE(sorter->Add(r).ok());
    ASSERT_TRUE(sorter->Seal().ok());
    EXPECT_EQ(sorter->record_count(), records.size());
    EXPECT_EQ(sorter->chunk_count(), expected_chunks);

    std::vector<uint64_t> expected = records;
    std::sort(expected.begin(), expected.end());

    // Twice: Merge() must be re-runnable over the same spill.
    for (int pass = 0; pass < 2; ++pass) {
      auto stream = sorter->Merge();
      ASSERT_TRUE(stream.ok());
      std::vector<uint64_t> merged;
      uint64_t record = 0;
      while (stream->Next(&record)) merged.push_back(record);
      ASSERT_TRUE(stream->status().ok());
      EXPECT_EQ(merged, expected) << "pass " << pass;
    }
  }

  std::string path_;
};

/// Deterministic scrambled sequence with duplicates sprinkled in.
std::vector<uint64_t> ScrambledRecords(size_t count) {
  std::vector<uint64_t> records(count);
  for (size_t i = 0; i < count; ++i) {
    records[i] = (i * 0x9E3779B97F4A7C15ULL) >> 13;
    if (i % 7 == 0) records[i] = records[i / 2];  // cross-chunk duplicates
  }
  return records;
}

TEST_F(ExternalSortTest, CountExactlyOnChunkBoundary) {
  RoundTrip(ScrambledRecords(64), /*chunk_records=*/8, /*expected_chunks=*/8);
}

TEST_F(ExternalSortTest, CountOneBelowChunkBoundary) {
  RoundTrip(ScrambledRecords(63), /*chunk_records=*/8, /*expected_chunks=*/8);
}

TEST_F(ExternalSortTest, CountOneAboveChunkBoundary) {
  RoundTrip(ScrambledRecords(65), /*chunk_records=*/8, /*expected_chunks=*/9);
}

TEST_F(ExternalSortTest, SingleChunkStaysInOneSpill) {
  RoundTrip(ScrambledRecords(5), /*chunk_records=*/1024,
            /*expected_chunks=*/1);
}

TEST_F(ExternalSortTest, SingleRecordPerChunkDegenerate) {
  RoundTrip(ScrambledRecords(9), /*chunk_records=*/1, /*expected_chunks=*/9);
}

TEST_F(ExternalSortTest, AllDuplicatesSurviveTheMerge) {
  RoundTrip(std::vector<uint64_t>(40, 0xDEADBEEFULL), /*chunk_records=*/8,
            /*expected_chunks=*/5);
}

TEST_F(ExternalSortTest, EmptySorterMergesToEmptyStream) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  options.chunk_records = 8;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  ASSERT_TRUE(sorter->Seal().ok());
  EXPECT_EQ(sorter->record_count(), 0u);
  EXPECT_EQ(sorter->chunk_count(), 0u);
  auto stream = sorter->Merge();
  ASSERT_TRUE(stream.ok());
  uint64_t record = 0;
  EXPECT_FALSE(stream->Next(&record));
  EXPECT_TRUE(stream->status().ok());
}

TEST_F(ExternalSortTest, AddAfterSealIsAnError) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  ASSERT_TRUE(sorter->Add(1).ok());
  ASSERT_TRUE(sorter->Seal().ok());
  EXPECT_FALSE(sorter->Add(2).ok());
  // Seal is idempotent.
  EXPECT_TRUE(sorter->Seal().ok());
}

TEST_F(ExternalSortTest, MergeBeforeSealIsAnError) {
  ExternalU64Sorter::Options options;
  options.spill_path = path_;
  auto sorter = ExternalU64Sorter::Create(options);
  ASSERT_TRUE(sorter.ok());
  EXPECT_FALSE(sorter->Merge().ok());
}

TEST_F(ExternalSortTest, SpillFileIsUnlinkedOnDestruction) {
  {
    ExternalU64Sorter::Options options;
    options.spill_path = path_;
    options.chunk_records = 4;
    auto sorter = ExternalU64Sorter::Create(options);
    ASSERT_TRUE(sorter.ok());
    for (uint64_t r = 0; r < 32; ++r) ASSERT_TRUE(sorter->Add(r).ok());
    ASSERT_TRUE(sorter->Seal().ok());
    EXPECT_GT(sorter->spilled_bytes(), 0u);
  }
  std::ifstream gone(path_);
  EXPECT_FALSE(gone.good());
}

}  // namespace
}  // namespace tpa
