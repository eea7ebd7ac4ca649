#include "ckpt/ckpt.hh"

#include <istream>
#include <ostream>

namespace occamy::ckpt
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/** Section markers get a fixed sentinel so drift is caught early. */
constexpr std::uint32_t kSectionTag = 0x5EC70000U;

std::uint64_t
fnv1a(std::uint64_t h, unsigned char c)
{
    return (h ^ c) * kFnvPrime;
}

// Checkpoint bytes go straight through the stream buffer: the sentry
// that std::ostream::put and std::istream::get build for every byte
// cost more than the rest of a save or restore. Both helpers leave the
// stream state as put() and get() would, and a failed stream moves no
// more bytes. Reading byte by byte never consumes past the trailer.

/** @p c to @p os; a refused byte sets badbit. */
void
putByte(std::ostream &os, char c)
{
    if (!os.good())
        os.setstate(std::ios::failbit);
    else if (os.rdbuf()->sputc(c) == std::ostream::traits_type::eof())
        os.setstate(std::ios::badbit);
}

/** The next byte of @p is, or eof (setting eofbit and failbit). */
int
getByte(std::istream &is)
{
    if (!is.good()) {
        is.setstate(std::ios::failbit);
        return std::istream::traits_type::eof();
    }
    const int c = is.rdbuf()->sbumpc();
    if (c == std::istream::traits_type::eof())
        is.setstate(std::ios::eofbit | std::ios::failbit);
    return c;
}

} // namespace

// --------------------------------------------------------------- Writer

Writer::Writer(std::ostream &os) : os_(os), hash_(kFnvOffset)
{
    u32(kMagic);
    u32(kVersion);
}

void
Writer::put(std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i) {
        const auto c = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        hash_ = fnv1a(hash_, c);
        putByte(os_, static_cast<char>(c));
    }
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    for (char c : s)
        put(static_cast<unsigned char>(c), 1);
}

void
Writer::section(const char *name)
{
    u32(kSectionTag);
    str(name);
}

void
Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // The trailer itself is not hashed: freeze the digest first.
    const std::uint64_t digest = hash_;
    u64(digest);
    os_.flush();
    if (!os_)
        throw Error("checkpoint write failed (output stream error)");
}

// --------------------------------------------------------------- Reader

Reader::Reader(std::istream &is) : is_(is), hash_(kFnvOffset)
{
    // On a seekable stream, remember how many bytes remain so array
    // lengths can be bounded by what the stream can still deliver.
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const std::istream::pos_type end = is.tellg();
        if (end != std::istream::pos_type(-1) && end >= here)
            left_ = static_cast<std::uint64_t>(end - here);
        is.clear();
        is.seekg(here);
    }
    if (get(4) != kMagic)
        throw Error("not an Occamy checkpoint (bad magic)");
    const std::uint64_t version = get(4);
    if (version != kVersion)
        throw Error("unsupported checkpoint format version " +
                    std::to_string(version) + " (this build reads version " +
                    std::to_string(kVersion) +
                    (version > kVersion ? "; the file is from a newer build)"
                                        : "; re-create the checkpoint)"));
}

std::uint64_t
Reader::get(int n)
{
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
        const int c = getByte(is_);
        if (c == std::istream::traits_type::eof())
            throw Error("truncated checkpoint (unexpected end of stream)");
        const auto uc = static_cast<unsigned char>(c);
        hash_ = fnv1a(hash_, uc);
        --left_;
        v |= std::uint64_t{uc} << (8 * i);
    }
    return v;
}

void
Reader::str(std::string &s)
{
    const std::size_t n = length(kMaxElems);
    s.clear();
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<char>(get(1)));
}

std::size_t
Reader::length(std::size_t maxElems, const char *msg)
{
    const std::uint64_t n = get(8);
    if (msg)
        check(n <= maxElems, msg);
    // Every element takes at least one byte of the stream.
    if (n > maxElems || n > left_)
        throw Error("corrupt checkpoint (implausible array length " +
                    std::to_string(n) + ")");
    return static_cast<std::size_t>(n);
}

std::uint64_t
Reader::ranged(std::uint64_t raw, std::uint64_t limit, const char *msg,
               std::uint64_t sentinels)
{
    if (raw >= limit && limit != kAny && (sentinels == 0 || raw < sentinels))
        throw Error(msg);
    return raw;
}

void
Reader::section(const char *name)
{
    if (get(4) != kSectionTag)
        throw Error(std::string("corrupt checkpoint (expected section '") +
                    name + "' marker)");
    std::string got;
    str(got);
    if (got != name)
        throw Error("checkpoint section mismatch (expected '" +
                    std::string(name) + "', found '" + got + "')");
}

void
Reader::finish()
{
    // Freeze the digest before consuming the (unhashed) trailer.
    const std::uint64_t expect = hash_;
    std::uint64_t trailer = 0;
    for (int i = 0; i < 8; ++i) {
        const int c = getByte(is_);
        if (c == std::istream::traits_type::eof())
            throw Error("truncated checkpoint (missing checksum trailer)");
        trailer |= std::uint64_t{static_cast<unsigned char>(c)} << (8 * i);
    }
    if (trailer != expect)
        throw Error("corrupt checkpoint (checksum mismatch)");
}

} // namespace occamy::ckpt
