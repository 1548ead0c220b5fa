/* Bulk byte operations under Mpicd_buf.Buf.

   Every stub is called [@@noalloc]: it allocates nothing, raises
   nothing and cannot trigger a GC, so the OCaml string and bytes
   pointers it reads stay valid for the whole call.  Offsets and
   lengths arrive already bounds-checked by buf.ml. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define BA_AT(ba, off) ((char *)Caml_ba_data_val(ba) + Long_val(off))

value mpicd_buf_memmove(value src, value src_off, value dst, value dst_off,
                        value len)
{
  if (Long_val(len) > 0)
    memmove(BA_AT(dst, dst_off), BA_AT(src, src_off), Long_val(len));
  return Val_unit;
}

value mpicd_buf_memset(value dst, value off, value len, value c)
{
  if (Long_val(len) > 0)
    memset(BA_AT(dst, off), Int_val(c), Long_val(len));
  return Val_unit;
}

value mpicd_buf_memcmp(value a, value a_off, value b, value b_off, value len)
{
  if (Long_val(len) <= 0) return Val_true;
  return Val_bool(memcmp(BA_AT(a, a_off), BA_AT(b, b_off), Long_val(len)) == 0);
}

value mpicd_buf_from_string(value s, value s_off, value dst, value dst_off,
                            value len)
{
  if (Long_val(len) > 0)
    memcpy(BA_AT(dst, dst_off), String_val(s) + Long_val(s_off), Long_val(len));
  return Val_unit;
}

value mpicd_buf_to_bytes(value src, value src_off, value dst, value dst_off,
                         value len)
{
  if (Long_val(len) > 0)
    memcpy(Bytes_val(dst) + Long_val(dst_off), BA_AT(src, src_off), Long_val(len));
  return Val_unit;
}
