// Recorded-transcript harness shared by the corpus suites
// (test_plan_differential, test_dispatch_differential).
//
// A transcript file tests/<name>.expected holds named sections, each
// introduced by a "### <section>" line. A suite registers one generator
// per section; Check(section) regenerates that section and compares it
// with the recorded text. On a mismatch (or an unrecorded section) the
// whole actual transcript, every section in name order, is written to
// <name>.actual in the working directory, ready to diff against (or to
// become) the recorded file.

#ifndef PGTRIGGERS_TESTS_TRANSCRIPT_H_
#define PGTRIGGERS_TESTS_TRANSCRIPT_H_

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>

namespace pgt {

/// Splits a transcript into its section bodies, keyed by section name.
inline std::map<std::string, std::string> ParseExpected(
    const std::string& text) {
  std::map<std::string, std::string> out;
  std::string* current = nullptr;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      current = &out[line.substr(4)];
      continue;
    }
    if (current != nullptr) *current += line + "\n";
  }
  return out;
}

class RecordedTranscript {
 public:
  using SectionFn = std::function<std::string()>;

  /// Loads tests/<name>.expected; a missing file fails every Check.
  RecordedTranscript(std::string name,
                     std::map<std::string, SectionFn> sections)
      : name_(std::move(name)), sections_(std::move(sections)) {
    std::ifstream in(PGT_TEST_DATA_DIR "/" + name_ + ".expected");
    loaded_ = in.good();
    std::stringstream buf;
    buf << in.rdbuf();
    expected_ = ParseExpected(buf.str());
  }

  /// Regenerates `section` and compares it with the recorded text.
  void Check(const std::string& section) const {
    const std::string actual = sections_.at(section)();
    auto it = expected_.find(section);
    if (it == expected_.end() || actual != it->second) {
      std::ofstream(name_ + ".actual") << Render();
    }
    ASSERT_TRUE(loaded_) << "missing tests/" << name_ << ".expected";
    ASSERT_NE(it, expected_.end()) << "no recorded section " << section;
    EXPECT_EQ(actual, it->second) << "section " << section;
  }

  /// Every generator has a recorded section and vice versa.
  void CheckEverySectionRecorded() const {
    ASSERT_TRUE(loaded_) << "missing tests/" << name_ << ".expected";
    EXPECT_EQ(expected_.size(), sections_.size());
    for (const auto& [section, fn] : sections_) {
      EXPECT_EQ(expected_.count(section), 1u) << "unrecorded " << section;
    }
  }

 private:
  /// The whole transcript: "### <section>" headers, sections in name order.
  std::string Render() const {
    std::string out;
    for (const auto& [section, fn] : sections_) {
      out += "### " + section + "\n" + fn();
    }
    return out;
  }

  std::string name_;
  std::map<std::string, SectionFn> sections_;
  std::map<std::string, std::string> expected_;
  bool loaded_ = false;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TESTS_TRANSCRIPT_H_
