/**
 * @file
 * Versioned binary checkpoint streams (DESIGN.md §11).
 *
 * A checkpoint is a little-endian byte stream with a fixed header
 * (magic "OCKP", format version), a sequence of named sections, and
 * an FNV-1a checksum trailer covering every byte before it, the header
 * included. Writer and Reader share one field-level interface: the
 * same call (`ar.u64(x)`, `ar.str(s)`, `ar.len(v)`, ...) writes the
 * field on a Writer and reads it back in place on a Reader. Each
 * stateful component lists its fields once, in a template body that
 * both its save() and load() instantiate:
 *
 *     template <class Self, class Ar>
 *     void Lsu::io(Self &s, Ar &ar) { ar.section("lsu"); ... }
 *
 * where Self is `const Lsu` on save and `Lsu` on load. Work that
 * happens in one direction only (deriving a value on save, checking
 * or re-attaching state on load) stays in save()/load() around the
 * shared body. System::saveCheckpoint owns the section order.
 *
 * Failure handling is exception-based: every malformed input —
 * wrong magic, unsupported version, truncation, checksum mismatch,
 * section-name drift, implausible array lengths, out-of-range enums
 * and indices — throws ckpt::Error with a message naming the problem.
 * Readers never return partially restored state to the caller:
 * System::restoreCheckpoint builds the target into a fresh context and
 * only installs it after finish() verifies the trailer.
 */

#ifndef OCCAMY_CKPT_CKPT_HH
#define OCCAMY_CKPT_CKPT_HH

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace occamy::ckpt
{

/** Every checkpoint failure mode surfaces as this exception. */
class Error : public std::runtime_error
{
public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/** "OCKP" read back as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x504B434FU;

/**
 * Bump on any layout change.  Policy (DESIGN.md §11): there is no
 * in-place migration — a reader accepts exactly its own version and
 * rejects everything else with a message naming both versions, so a
 * stale file fails loudly instead of deserializing garbage.
 */
constexpr std::uint32_t kVersion = 2;

/** Default plausibility bound on a serialized array length. */
constexpr std::size_t kMaxElems = std::size_t{1} << 28;

/** "No limit" for the range-checked integer fields. */
constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();

/** Serializes fields to a stream while accumulating the checksum. */
class Writer
{
public:
    /** Writes the magic/version header immediately. */
    explicit Writer(std::ostream &os);

    /**
     * Fixed-width integers. An optional (limit, msg[, sentinels]) tail
     * range-checks the field on restore (an enum or an index): Reader
     * rejects raw values outside [0, limit) with Error(msg), except
     * those at or above a nonzero sentinels floor (e.g. kNoCore). A
     * signed field's raw value is its two's-complement u64 pattern.
     */
    template <class T, class... Check>
    void u8(const T &v, Check...) { put(static_cast<std::uint64_t>(v), 1); }
    template <class T, class... Check>
    void u16(const T &v, Check...) { put(static_cast<std::uint64_t>(v), 2); }
    template <class T, class... Check>
    void u32(const T &v, Check...) { put(static_cast<std::uint64_t>(v), 4); }
    template <class T, class... Check>
    void u64(const T &v, Check...) { put(static_cast<std::uint64_t>(v), 8); }
    template <class T, class... Check>
    void i64(const T &v, Check...) { put(static_cast<std::uint64_t>(v), 8); }
    /** Bit-exact: the IEEE-754 pattern round-trips unchanged. */
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }
    void b(bool v) { put(v ? 1 : 0, 1); }
    void str(const std::string &s);

    /** A stats::Counter, as its u64 value. */
    template <class C>
    void counter(const C &c) { u64(c.value()); }

    /**
     * A value the restoring side already holds (a configured size, the
     * fingerprint): written here; Reader checks it is equal and throws
     * Error(@p msg) otherwise. Encoded by type: bool, u32, u64, string.
     */
    void same(bool v, const std::string &) { b(v); }
    void same(std::uint32_t v, const std::string &) { u32(v); }
    void same(std::uint64_t v, const std::string &) { u64(v); }
    void same(const std::string &v, const std::string &) { str(v); }
    template <class T>
    void same(const T &, const std::string &) = delete;

    /** A container's length (u64); Reader resizes the container to it,
     *  rejecting lengths above @p maxElems (with @p msg when given). */
    template <class C>
    void len(const C &c, std::size_t = kMaxElems, const char * = nullptr)
    {
        u64(c.size());
    }

    /** A nested component, through its save() hook (@p args: what
     *  the hook takes besides the Writer, e.g. the checkpoint cycle). */
    template <class T, class... A>
    void io(const T &component, const A &...args)
    {
        component.save(*this, args...);
    }

    /** Marks the start of a named section. */
    void section(const char *name);

    /** Writes the checksum trailer; the Writer is dead afterwards. */
    void finish();

private:
    /** The low @p n bytes of @p v, little-endian. */
    void put(std::uint64_t v, int n);

    std::ostream &os_;
    std::uint64_t hash_;
    bool finished_ = false;
};

/** Reads what Writer wrote; throws Error on any malformed input. */
class Reader
{
public:
    /** Validates the magic/version header immediately. */
    explicit Reader(std::istream &is);

    /** Writer's calls, reading into the field (range checks apply). */
    template <class T, class... Check>
    void u8(T &v, Check... c) { v = static_cast<T>(ranged(get(1), c...)); }
    template <class T, class... Check>
    void u16(T &v, Check... c) { v = static_cast<T>(ranged(get(2), c...)); }
    template <class T, class... Check>
    void u32(T &v, Check... c) { v = static_cast<T>(ranged(get(4), c...)); }
    template <class T, class... Check>
    void u64(T &v, Check... c) { v = static_cast<T>(ranged(get(8), c...)); }
    template <class T, class... Check>
    void i64(T &v, Check... c) { v = static_cast<T>(ranged(get(8), c...)); }
    void f64(double &v) { v = std::bit_cast<double>(get(8)); }
    void b(bool &v) { v = boolean(); }
    void b(std::vector<bool>::reference v) { v = boolean(); }
    void str(std::string &s);

    template <class C>
    void counter(C &c) { c.set(get(8)); }

    void same(bool v, const std::string &msg) { check(boolean() == v, msg); }
    void same(std::uint32_t v, const std::string &m) { check(get(4) == v, m); }
    void same(std::uint64_t v, const std::string &m) { check(get(8) == v, m); }
    void same(const std::string &v, const std::string &msg)
    {
        std::string got;
        str(got);
        check(got == v, msg);
    }
    template <class T>
    void same(const T &, const std::string &) = delete;

    template <class C>
    void len(C &c, std::size_t maxElems = kMaxElems, const char *msg = {})
    {
        c.resize(length(maxElems, msg));
    }

    template <class T, class... A>
    void io(T &component, const A &...args)
    {
        component.load(*this, args...);
    }

    /** Reads a section marker; mismatch means drift or corruption. */
    void section(const char *name);

    /** Convenience guard: throws Error(msg) when cond is false. */
    static void check(bool cond, const std::string &msg)
    {
        if (!cond)
            throw Error(msg);
    }

    /** Verifies the checksum trailer. */
    void finish();

private:
    /** @p n bytes, little-endian. */
    std::uint64_t get(int n);
    bool boolean()
    {
        return ranged(get(1), 2, "corrupt checkpoint (bad boolean)") != 0;
    }
    /**
     * Reads an array length, rejecting one above @p maxElems (with
     * Error(@p msg) when given) or longer than the bytes a seekable
     * stream has left, so a corrupt stream fails cleanly instead of
     * attempting a huge allocation before the checksum is reached.
     */
    std::size_t length(std::size_t maxElems, const char *msg = nullptr);
    static std::uint64_t ranged(std::uint64_t raw,
                                std::uint64_t limit = kAny,
                                const char *msg = nullptr,
                                std::uint64_t sentinels = 0);

    std::istream &is_;
    std::uint64_t hash_;
    /** Bytes left in a seekable stream; kAny otherwise. */
    std::uint64_t left_ = kAny;
};

} // namespace occamy::ckpt

#endif // OCCAMY_CKPT_CKPT_HH
